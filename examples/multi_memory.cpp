// A single shared address space over multiple memories via narrowcast.
//
// Paper Fig. 3 / §4.2: "Narrowcast connections provide a simple, low-cost
// solution for a single shared address space mapped on multiple memories."
// A CPU-like master sees one flat address space; the narrowcast shell
// (a master shell over three connections) decodes each transaction's
// address and sends it to exactly one of three memory tiles, merging
// responses back in order.
//
// Build & run:  ./example_multi_memory
#include <iostream>

#include "ip/memory_slave.h"
#include "scenario/wiring.h"
#include "shells/master_shell.h"
#include "shells/slave_shell.h"
#include "soc/soc.h"

using namespace aethereal;

int main() {
  // CPU on NI0 (3 channels: one per memory); memories on NI1..NI3.
  auto soc_ptr = scenario::MakeStarSoc({3, 1, 1, 1});
  soc::Soc& soc = *soc_ptr;
  for (int m = 0; m < 3; ++m) {
    auto handle = soc.OpenConnection(tdm::GlobalChannel{0, m},
                                     tdm::GlobalChannel{m + 1, 0});
    if (!handle.ok()) {
      std::cerr << "open failed: " << handle.status() << "\n";
      return 1;
    }
  }

  shells::MasterShell cpu_shell("narrowcast", soc.port(0, 0),
                              std::vector<int>{0, 1, 2});
  // One flat 3 x 0x400-word address space: [0x0000, 0x0C00).
  constexpr Word kBankWords = 0x400;
  for (int m = 0; m < 3; ++m) {
    if (auto s = cpu_shell.MapRange(m * kBankWords, kBankWords, m); !s.ok()) {
      std::cerr << "map failed: " << s << "\n";
      return 1;
    }
  }

  std::vector<std::unique_ptr<shells::SlaveShell>> slave_shells;
  std::vector<std::unique_ptr<ip::MemorySlave>> memories;
  for (int m = 0; m < 3; ++m) {
    slave_shells.push_back(std::make_unique<shells::SlaveShell>(
        "slave" + std::to_string(m), soc.port(m + 1, 0), 0));
    // Different service latencies per bank — responses still arrive in
    // issue order at the CPU.
    memories.push_back(std::make_unique<ip::MemorySlave>(
        "mem" + std::to_string(m), slave_shells.back().get(),
        m * kBankWords, kBankWords, /*latency=*/1 + 10 * m));
    soc.RegisterOnPort(slave_shells.back().get(), m + 1, 0);
    soc.RegisterOnPort(memories.back().get(), m + 1, 0);
  }
  soc.RegisterOnPort(&cpu_shell, 0, 0);
  soc.RunCycles(2);

  // Scatter writes across the flat address space (striding over banks).
  int tid = 0;
  for (Word i = 0; i < 12; ++i) {
    const Word address = (i % 3) * kBankWords + i;  // hop between banks
    cpu_shell.IssueWrite(address, {0x1000 + i}, /*needs_ack=*/true, tid++);
  }
  int acks = 0;
  while (acks < 12) {
    soc.RunCycles(10);
    while (cpu_shell.HasResponse()) {
      (void)cpu_shell.PopResponse();
      ++acks;
    }
  }
  std::cout << "12 writes scattered over 3 memories (ack'd in order)\n";

  // Read back through the same flat space — issue order spans slow and
  // fast banks, responses must come back in issue order.
  for (Word i = 0; i < 12; ++i) {
    const Word address = (i % 3) * kBankWords + i;
    cpu_shell.IssueRead(address, 1, tid++);
  }
  int reads = 0;
  bool in_order = true;
  int last_tid = -1;
  while (reads < 12) {
    soc.RunCycles(10);
    while (cpu_shell.HasResponse()) {
      auto rsp = cpu_shell.PopResponse();
      in_order = in_order && (rsp.transaction_id > last_tid);
      last_tid = rsp.transaction_id;
      const Word expect = 0x1000 + static_cast<Word>(reads);
      if (rsp.data.size() != 1 || rsp.data[0] != expect) {
        std::cerr << "data mismatch at read " << reads << "\n";
        return 1;
      }
      ++reads;
    }
  }
  std::cout << "12 reads returned the written data, in issue order: "
            << (in_order ? "yes" : "NO") << "\n";

  // An unmapped address gets an in-order error response, not a hang.
  cpu_shell.IssueRead(0x5000, 1, tid++);
  while (!cpu_shell.HasResponse()) soc.RunCycles(10);
  std::cout << "unmapped access returned: "
            << transaction::ResponseErrorName(cpu_shell.PopResponse().error)
            << "\n";

  for (int m = 0; m < 3; ++m) {
    std::cout << "  mem" << m << ": " << memories[m]->writes_served()
              << " writes, " << memories[m]->reads_served() << " reads\n";
  }
  std::cout << "multi_memory done.\n";
  return 0;
}
