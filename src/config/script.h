// Scripted configuration driver: sequences Fig. 9 open/close operations at
// scheduled cycles through a ConnectionManager and surfaces per-operation
// reconfiguration metrics — the costs the paper reports for runtime
// (re)configuration: setup/teardown latency in cycles, the number of
// configuration messages each operation put on the NoC, and the TDM slots
// it allocated or reclaimed.
//
// The driver is a sim::Module on the same clock as the manager. Operations
// are pushed (at build time or mid-run, between RunCycles calls) and handed
// to the manager on the driver's next cycle, strictly in push order. The
// manager itself serializes execution (one Fig. 9 op at a time, each phase
// closed by an acknowledged write), so issue order is completion order.
//
// The phased scenario runner (scenario/runner.cpp) drives every use-case
// transition through this module; config_test exercises it standalone.
#ifndef AETHEREAL_CONFIG_SCRIPT_H
#define AETHEREAL_CONFIG_SCRIPT_H

#include <cstddef>
#include <string>
#include <vector>

#include "config/connection_manager.h"
#include "sim/kernel.h"
#include "util/status.h"

namespace aethereal::config {

/// One scripted open or close, with its observed outcome.
struct ScriptedOp {
  enum class Kind { kOpen, kClose };

  // --- request --------------------------------------------------------------
  Kind kind = Kind::kOpen;
  ConnectionSpec spec;      // kOpen: the connection to establish
  int open_ref = -1;        // kClose: index of the scripted open to close

  // --- outcome (valid once `done`) ------------------------------------------
  bool issued = false;
  bool done = false;
  int handle = -1;              // manager handle (kOpen and resolved kClose)
  Cycle issued_at = -1;         // cycle the request entered the manager
  Cycle completed_at = -1;      // cycle the Fig. 9 sequence finished
  ConnectionState final_state = ConnectionState::kPending;
  Status error;                 // non-OK when the op failed or was rejected
  int config_writes = 0;        // register writes of this op alone
  int slots_delta = 0;          // slots allocated (open) / reclaimed (close)

  /// Setup or teardown latency in cycles (-1 until done).
  Cycle Latency() const {
    return done && completed_at >= 0 && issued_at >= 0
               ? completed_at - issued_at
               : -1;
  }
};

class ScriptedConfigDriver : public sim::Module {
 public:
  ScriptedConfigDriver(std::string name, ConnectionManager* manager);

  /// Appends an operation to the script; returns its index. Callable
  /// before the first cycle or between cycles (the phased runner pushes
  /// each transition's batch when the transition begins).
  int Push(ScriptedOp op);

  /// Convenience: push an open / a close of a previously pushed open.
  int PushOpen(const ConnectionSpec& spec);
  int PushClose(int open_ref);

  /// True once every pushed op has completed (successfully or not).
  bool Done() const { return next_to_finish_ == ops_.size(); }

  const ScriptedOp& op(std::size_t index) const;

  std::int64_t ops_succeeded() const { return ops_succeeded_; }
  std::int64_t ops_failed() const { return ops_failed_; }

  void Evaluate() override;

 private:
  void FinishOp(ScriptedOp& op, ConnectionState state, Status error);

  ConnectionManager* manager_;
  std::vector<ScriptedOp> ops_;
  std::size_t next_to_issue_ = 0;
  std::size_t next_to_finish_ = 0;
  std::int64_t ops_succeeded_ = 0;
  std::int64_t ops_failed_ = 0;
};

}  // namespace aethereal::config

#endif  // AETHEREAL_CONFIG_SCRIPT_H
