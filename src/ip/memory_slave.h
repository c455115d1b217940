// Memory slave IP: a word-addressed memory behind a slave endpoint.
//
// Serves the shared-memory abstraction the NI offers: read/write bursts at
// a configurable service latency, plus read-linked / write-conditional
// (locked accesses, which the paper lists among full-fledged slave-shell
// features) implemented with a single reservation register.
//
// Parks while idle, and until its service latency has passed while a
// request is in service; the endpoint wakes it for every request
// (DESIGN.md §7.4).
#ifndef AETHEREAL_IP_MEMORY_SLAVE_H
#define AETHEREAL_IP_MEMORY_SLAVE_H

#include <optional>
#include <string>
#include <vector>

#include "shells/endpoints.h"
#include "sim/kernel.h"
#include "transaction/message.h"
#include "util/types.h"

namespace aethereal::ip {

class MemorySlave : public sim::Module {
 public:
  /// Serves word addresses [base, base + size_words).
  MemorySlave(std::string name, shells::SlaveEndpoint* endpoint, Word base,
              Word size_words, int service_latency_cycles = 1);

  /// Backdoor access for tests and examples.
  Word Load(Word address) const;
  void Store(Word address, Word value);

  std::int64_t reads_served() const { return reads_served_; }
  std::int64_t writes_served() const { return writes_served_; }

  void Evaluate() override;

 private:
  bool InRange(Word address, int words) const;
  transaction::ResponseMessage Execute(const transaction::RequestMessage& req);

  shells::SlaveEndpoint* endpoint_;
  Word base_;
  std::vector<Word> storage_;
  int service_latency_;

  // One request in service at a time (simple SRAM-like slave).
  std::optional<transaction::RequestMessage> in_service_;
  Cycle done_at_ = 0;

  // Reservation register for read-linked / write-conditional.
  std::optional<Word> reservation_;

  std::int64_t reads_served_ = 0;
  std::int64_t writes_served_ = 0;
};

}  // namespace aethereal::ip

#endif  // AETHEREAL_IP_MEMORY_SLAVE_H
