// Run-time connection management (paper §3, §4.3, Fig. 9).
//
// The ConnectionManager is the configuration module ("Cfg") of the
// centralized configuration model: it owns the slot occupancy information
// (a CentralizedAllocator), opens and closes connections by writing NI
// registers through the configuration shell — using the NoC itself, never a
// separate control interconnect — and follows the Fig. 9 protocol:
//
//   1. set up the request channel Cfg -> target NI by writing the local
//      NI's registers (via the config shell, directly);
//   2. set up the response channel target -> Cfg via the NoC (3 writes,
//      the last one acknowledged);
//   3. set up the slave-to-master (response) channel of the new connection;
//   4. set up the master-to-slave (request) channel of the new connection.
//
// Each phase ends with an acknowledged write so that a later phase never
// races an earlier one on a different channel. Steps 3-4, a close, and
// their slot reservations come from the connection program that
// Soc::OpenConnection applies directly (config/connection_program.h).
//
// The manager parks while no operation is active or queued, and while it
// waits for acks at a barrier (until the earliest retry deadline under a
// retry policy); requests and the config shell's responses wake it
// (DESIGN.md §7.4). It never parks in an edge in which it issued a write:
// a local-NI write answers on the next edge.
#ifndef AETHEREAL_CONFIG_CONNECTION_MANAGER_H
#define AETHEREAL_CONFIG_CONNECTION_MANAGER_H

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "config/connection_program.h"
#include "core/ni_kernel.h"
#include "fault/spec.h"
#include "shells/config_shell.h"
#include "tdm/allocator.h"
#include "topology/topology.h"
#include "util/status.h"

namespace aethereal::config {

enum class ConnectionState { kPending, kOpen, kFailed, kClosed };

const char* ConnectionStateName(ConnectionState state);

class ConnectionManager : public sim::Module {
 public:
  /// Queue-capacity lookup: destination-queue words of a channel, used to
  /// initialize the remote Space counters.
  using QueueLookup = std::function<int(const tdm::GlobalChannel&)>;

  struct CnipInfo {
    ChannelId channel = kInvalidId;  // flat CNIP channel id at that NI
    int dest_queue_words = 0;        // its destination-queue capacity
  };

  ConnectionManager(std::string name, const topology::Topology* topology,
                    tdm::CentralizedAllocator* allocator,
                    shells::ConfigShell* shell, core::NiPort* cfg_port,
                    NiId cfg_ni, std::map<NiId, int> cfg_connid_of_ni,
                    std::map<NiId, CnipInfo> cnip_of_ni, QueueLookup lookup);

  /// Queues a connection-open; returns a handle. Progress happens as the
  /// simulation runs; poll StateOf()/Idle(). Callable between cycles or
  /// from a module registered after the manager (the wake it issues takes
  /// effect on the next edge).
  int RequestOpen(const ConnectionSpec& spec);

  /// Queues a connection-close. Closing a handle that is already closed, or
  /// whose open has already failed, is rejected here with a clean status
  /// (never an abort). A close queued behind a still-pending open is
  /// accepted; if that open later fails, the close completes as a no-op.
  /// Callable like RequestOpen.
  Status RequestClose(int handle);

  bool Idle() const { return ops_.empty() && !op_active_; }
  ConnectionState StateOf(int handle) const;
  const Status& ErrorOf(int handle) const;

  /// Cycle at which the handle's last operation completed (-1 if pending).
  Cycle CompletionCycleOf(int handle) const;

  /// Configuration register writes issued for the handle's connection so
  /// far (open + close actions; EnsureConfig traffic is not attributed,
  /// though a failed EnsureConfig fails the open queued behind it).
  int ConfigWritesOf(int handle) const;

  /// TDM slots currently held by the handle (request + response channels).
  int SlotsHeldOf(int handle) const;

  /// True once the configuration connection to `ni` is established.
  bool ConfigConnectionLive(NiId ni) const;

  /// Endpoints (master, slave) of every connection currently kOpen — the
  /// runtime-configured complement of Soc::OpenChannelPairs, consumed by
  /// the verification monitor's credit pairing.
  std::vector<std::pair<tdm::GlobalChannel, tdm::GlobalChannel>> OpenPairs()
      const;

  /// Invoked after every completed open/close (the Soc bumps its
  /// connections version so the monitor re-queries channel pairs).
  void SetOnConnectionsChanged(std::function<void()> callback) {
    on_connections_changed_ = std::move(callback);
  }

  std::int64_t operations_completed() const { return operations_completed_; }

  /// Arms the acknowledgment-timeout / bounded-retry / exponential-backoff
  /// policy (DESIGN.md §12). With a policy enabled, EVERY register write is
  /// issued acknowledged and tracked individually — a lost unacked write
  /// could never be detected, let alone recovered — and a write whose ack
  /// has not arrived within timeout * backoff^attempt cycles is re-issued,
  /// up to max_retries re-issues, after which the owning operation fails
  /// with kRetriesExhausted. Register writes are idempotent, so a duplicate
  /// caused by a delayed-but-not-lost ack is harmless.
  void SetRetryPolicy(const fault::RetryPolicy& policy) { retry_ = policy; }

  std::int64_t ack_timeouts() const { return ack_timeouts_; }
  std::int64_t writes_retried() const { return writes_retried_; }

  void Evaluate() override;

 private:
  struct Action {
    NiId ni;
    Word reg;
    Word value;
    bool acked;
  };
  struct Op {
    enum class Kind { kEnsureConfig, kOpenData, kCloseData } kind;
    NiId target = kInvalidId;  // kEnsureConfig
    // The connection the op opens or closes; for kEnsureConfig, the open
    // queued behind it, which fails with it.
    int handle = -1;
  };
  struct Record {
    Connection connection;  // routes and slots set once the open is built
    ConnectionState state = ConnectionState::kPending;
    Status error;
    Cycle completed_at = -1;
    int config_writes = 0;     // register writes attributed to this handle
    bool close_requested = false;  // a close is queued or done
  };

  /// An acknowledged write awaiting its ack under the retry policy.
  struct OutstandingWrite {
    int tid = -1;
    Action action{};
    Cycle issued_at = 0;
    int attempt = 0;  // 0 = initial issue
  };

  void StartNextOp();
  Cycle RetryDeadline(const OutstandingWrite& write) const;
  /// Parks while acks are outstanding: until the earliest retry deadline
  /// under a retry policy, else until the config shell wakes us.
  void ParkUntilAckOrTimeout();
  enum class TimeoutScan { kNothing, kReissued, kOpFailed };
  TimeoutScan ScanForTimeouts();
  bool BuildEnsureConfigActions(NiId target);
  bool BuildOpenActions(Record& record);
  bool BuildCloseActions(Record& record);
  /// Acknowledges the last queued write and queues a barrier after it.
  void EndPhase();
  void FailCurrentOp(Status status);

  const topology::Topology* topology_;
  tdm::CentralizedAllocator* allocator_;
  shells::ConfigShell* shell_;
  core::NiPort* cfg_port_;
  NiId cfg_ni_;
  std::map<NiId, int> cfg_connid_of_ni_;
  std::map<NiId, CnipInfo> cnip_of_ni_;
  QueueLookup lookup_;

  std::map<NiId, bool> config_live_;
  std::deque<Op> ops_;
  Op current_op_{};
  bool op_active_ = false;
  // Actions of the active op, grouped in phases separated by ack barriers:
  // a kBarrier sentinel action (ni == kInvalidId) means "wait for all
  // outstanding acks before continuing".
  std::deque<Action> current_actions_;
  std::vector<int> outstanding_tids_;
  std::vector<Record> records_;
  std::int64_t operations_completed_ = 0;
  std::function<void()> on_connections_changed_;

  fault::RetryPolicy retry_;
  std::vector<OutstandingWrite> outstanding_writes_;
  // Tids of timed-out writes that were re-issued (or whose op failed): a
  // delayed-but-not-lost ack may still arrive and must be drained, or it
  // would sit in the config shell's response queue forever.
  std::vector<int> abandoned_tids_;
  std::int64_t ack_timeouts_ = 0;
  std::int64_t writes_retried_ = 0;
};

}  // namespace aethereal::config

#endif  // AETHEREAL_CONFIG_CONNECTION_MANAGER_H
