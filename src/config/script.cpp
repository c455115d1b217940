#include "config/script.h"

#include "util/check.h"

namespace aethereal::config {

ScriptedConfigDriver::ScriptedConfigDriver(std::string name,
                                           ConnectionManager* manager)
    : sim::Module(std::move(name)), manager_(manager) {
  AETHEREAL_CHECK(manager != nullptr);
}

int ScriptedConfigDriver::Push(ScriptedOp op) {
  if (op.kind == ScriptedOp::Kind::kClose) {
    AETHEREAL_CHECK_MSG(op.open_ref >= 0 &&
                            op.open_ref < static_cast<int>(ops_.size()) &&
                            ops_[static_cast<std::size_t>(op.open_ref)].kind ==
                                ScriptedOp::Kind::kOpen,
                        name() << ": close must reference an earlier open");
  }
  ops_.push_back(std::move(op));
  Wake();
  return static_cast<int>(ops_.size() - 1);
}

int ScriptedConfigDriver::PushOpen(const ConnectionSpec& spec) {
  ScriptedOp op;
  op.kind = ScriptedOp::Kind::kOpen;
  op.spec = spec;
  return Push(std::move(op));
}

int ScriptedConfigDriver::PushClose(int open_ref) {
  ScriptedOp op;
  op.kind = ScriptedOp::Kind::kClose;
  op.open_ref = open_ref;
  return Push(std::move(op));
}

const ScriptedOp& ScriptedConfigDriver::op(std::size_t index) const {
  AETHEREAL_CHECK(index < ops_.size());
  return ops_[index];
}

void ScriptedConfigDriver::FinishOp(ScriptedOp& op, ConnectionState state,
                                    Status error) {
  op.done = true;
  op.final_state = state;
  op.error = std::move(error);
  if (op.error.ok()) {
    ++ops_succeeded_;
  } else {
    ++ops_failed_;
  }
}

void ScriptedConfigDriver::Evaluate() {
  const Cycle now = CycleCount();

  // Issue in script order.
  while (next_to_issue_ < ops_.size()) {
    ScriptedOp& op = ops_[next_to_issue_];
    if (op.kind == ScriptedOp::Kind::kOpen) {
      op.handle = manager_->RequestOpen(op.spec);
      op.issued = true;
      op.issued_at = now;
    } else {
      const ScriptedOp& open_op =
          ops_[static_cast<std::size_t>(op.open_ref)];
      op.handle = open_op.handle;
      op.issued = true;
      op.issued_at = now;
      if (open_op.done && !open_op.error.ok()) {
        FinishOp(op, ConnectionState::kFailed,
                 FailedPreconditionError(
                     "scripted close references an open that failed"));
      } else if (Status s = manager_->RequestClose(op.handle); !s.ok()) {
        // A close queued behind a still-pending open is accepted by the
        // manager (it serializes); only terminal rejections land here.
        FinishOp(op, manager_->StateOf(op.handle), std::move(s));
      }
    }
    ++next_to_issue_;
  }

  // Retire in script order (manager execution is serialized, so the oldest
  // unfinished op is always the next to complete).
  while (next_to_finish_ < ops_.size()) {
    ScriptedOp& op = ops_[next_to_finish_];
    if (!op.issued) break;
    if (!op.done) {
      const ConnectionState state = manager_->StateOf(op.handle);
      const bool open_done = op.kind == ScriptedOp::Kind::kOpen &&
                             (state == ConnectionState::kOpen ||
                              state == ConnectionState::kFailed);
      const bool close_done = op.kind == ScriptedOp::Kind::kClose &&
                              (state == ConnectionState::kClosed ||
                               state == ConnectionState::kFailed);
      if (!open_done && !close_done) break;
      op.completed_at = manager_->CompletionCycleOf(op.handle);
      if (op.kind == ScriptedOp::Kind::kOpen) {
        op.config_writes = manager_->ConfigWritesOf(op.handle);
        op.slots_delta = manager_->SlotsHeldOf(op.handle);
      } else {
        // The manager's counter is cumulative per handle; this op's share
        // is what came after the open's recorded count. Slots reclaimed =
        // exactly what the (successful) open had allocated.
        const ScriptedOp& open_op =
            ops_[static_cast<std::size_t>(op.open_ref)];
        op.config_writes =
            manager_->ConfigWritesOf(op.handle) - open_op.config_writes;
        if (state == ConnectionState::kClosed) {
          op.slots_delta = open_op.slots_delta;
        }
      }
      FinishOp(op, state,
               state == ConnectionState::kFailed ? manager_->ErrorOf(op.handle)
                                                 : OkStatus());
    }
    ++next_to_finish_;
  }

  // Nothing in flight: sleep until a Push wakes us.
  if (Done()) Park();
}

}  // namespace aethereal::config
