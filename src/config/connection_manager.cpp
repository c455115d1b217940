#include "config/connection_manager.h"

#include <algorithm>

#include "core/registers.h"
#include "util/check.h"

namespace aethereal::config {

namespace regs = core::regs;
using transaction::ResponseError;

const char* ConnectionStateName(ConnectionState state) {
  switch (state) {
    case ConnectionState::kPending: return "pending";
    case ConnectionState::kOpen: return "open";
    case ConnectionState::kFailed: return "failed";
    case ConnectionState::kClosed: return "closed";
  }
  return "?";
}

ConnectionManager::ConnectionManager(
    std::string name, const topology::Topology* topology,
    tdm::CentralizedAllocator* allocator, shells::ConfigShell* shell,
    core::NiPort* cfg_port, NiId cfg_ni, std::map<NiId, int> cfg_connid_of_ni,
    std::map<NiId, CnipInfo> cnip_of_ni, QueueLookup lookup)
    : sim::Module(std::move(name)),
      topology_(topology),
      allocator_(allocator),
      shell_(shell),
      cfg_port_(cfg_port),
      cfg_ni_(cfg_ni),
      cfg_connid_of_ni_(std::move(cfg_connid_of_ni)),
      cnip_of_ni_(std::move(cnip_of_ni)),
      lookup_(std::move(lookup)) {
  AETHEREAL_CHECK(topology != nullptr && allocator != nullptr &&
                  shell != nullptr && cfg_port != nullptr);
}

int ConnectionManager::RequestOpen(const ConnectionSpec& spec) {
  const int handle = static_cast<int>(records_.size());
  records_.push_back(Record{spec, ConnectionState::kPending, OkStatus(),
                            {}, {}, {}, {}, -1, 0, false});
  if (spec.master.ni != cfg_ni_ && !config_live_[spec.master.ni]) {
    ops_.push_back(Op{Op::Kind::kEnsureConfig, spec.master.ni, -1});
  }
  if (spec.slave.ni != cfg_ni_ && spec.slave.ni != spec.master.ni &&
      !config_live_[spec.slave.ni]) {
    ops_.push_back(Op{Op::Kind::kEnsureConfig, spec.slave.ni, -1});
  }
  ops_.push_back(Op{Op::Kind::kOpenData, kInvalidId, handle});
  Wake();
  return handle;
}

Status ConnectionManager::RequestClose(int handle) {
  if (handle < 0 || handle >= static_cast<int>(records_.size())) {
    return InvalidArgumentError("unknown connection handle");
  }
  // Terminal and duplicate requests are rejected up front with a clean
  // status: a double close (completed OR still queued) or a close of a
  // connection whose open already failed must never clobber the record,
  // double-count teardown metrics, or abort deep in the close actions. An
  // open that is still merely queued is fine — the close op runs after it.
  Record& record = records_[static_cast<std::size_t>(handle)];
  if (record.close_requested) {
    return FailedPreconditionError("connection close already requested");
  }
  switch (record.state) {
    case ConnectionState::kClosed:
      return FailedPreconditionError("connection already closed");
    case ConnectionState::kFailed:
      return FailedPreconditionError(
          "cannot close a connection whose open failed: " +
          record.error.message());
    case ConnectionState::kPending:
    case ConnectionState::kOpen:
      break;
  }
  record.close_requested = true;
  ops_.push_back(Op{Op::Kind::kCloseData, kInvalidId, handle});
  Wake();
  return OkStatus();
}

ConnectionState ConnectionManager::StateOf(int handle) const {
  AETHEREAL_CHECK(handle >= 0 && handle < static_cast<int>(records_.size()));
  return records_[static_cast<std::size_t>(handle)].state;
}

const Status& ConnectionManager::ErrorOf(int handle) const {
  AETHEREAL_CHECK(handle >= 0 && handle < static_cast<int>(records_.size()));
  return records_[static_cast<std::size_t>(handle)].error;
}

Cycle ConnectionManager::CompletionCycleOf(int handle) const {
  AETHEREAL_CHECK(handle >= 0 && handle < static_cast<int>(records_.size()));
  return records_[static_cast<std::size_t>(handle)].completed_at;
}

int ConnectionManager::ConfigWritesOf(int handle) const {
  AETHEREAL_CHECK(handle >= 0 && handle < static_cast<int>(records_.size()));
  return records_[static_cast<std::size_t>(handle)].config_writes;
}

int ConnectionManager::SlotsHeldOf(int handle) const {
  AETHEREAL_CHECK(handle >= 0 && handle < static_cast<int>(records_.size()));
  const Record& record = records_[static_cast<std::size_t>(handle)];
  return static_cast<int>(record.request_slots.size() +
                          record.response_slots.size());
}

bool ConnectionManager::ConfigConnectionLive(NiId ni) const {
  auto it = config_live_.find(ni);
  return it != config_live_.end() && it->second;
}

std::vector<std::pair<tdm::GlobalChannel, tdm::GlobalChannel>>
ConnectionManager::OpenPairs() const {
  std::vector<std::pair<tdm::GlobalChannel, tdm::GlobalChannel>> pairs;
  for (const Record& record : records_) {
    if (record.state == ConnectionState::kOpen) {
      pairs.emplace_back(record.spec.master, record.spec.slave);
    }
  }
  return pairs;
}

Word ConnectionManager::SlotMask(const std::vector<SlotIndex>& slots) const {
  Word mask = 0;
  for (SlotIndex s : slots) mask |= (1u << s);
  return mask;
}

void ConnectionManager::FailCurrentOp(Status status) {
  if (current_op_.handle >= 0) {
    Record& record = records_[static_cast<std::size_t>(current_op_.handle)];
    record.state = ConnectionState::kFailed;
    record.error = std::move(status);
    record.completed_at = CycleCount();
  }
  current_actions_.clear();
  // Acks of the abandoned writes may still arrive; remember their tids so
  // the stale responses get drained instead of pooling in the shell.
  for (int tid : outstanding_tids_) abandoned_tids_.push_back(tid);
  outstanding_tids_.clear();
  outstanding_writes_.clear();
  op_active_ = false;
}

bool ConnectionManager::BuildEnsureConfigActions(NiId target) {
  if (config_live_[target]) return true;  // raced with an earlier op: done
  auto cfg_it = cfg_connid_of_ni_.find(target);
  auto cnip_it = cnip_of_ni_.find(target);
  if (cfg_it == cfg_connid_of_ni_.end() || cnip_it == cnip_of_ni_.end()) {
    FailCurrentOp(NotFoundError("no config channel provisioned for NI"));
    return false;
  }
  auto route_to = topology_->Route(cfg_ni_, target);
  auto route_back = topology_->Route(target, cfg_ni_);
  if (!route_to.ok() || !route_back.ok()) {
    FailCurrentOp(NotFoundError("no route between Cfg and target NI"));
    return false;
  }
  const CnipInfo& cnip = cnip_it->second;
  const ChannelId cfg_channel = cfg_port_->GlobalChannelOf(cfg_it->second);
  const int cfg_dest_words =
      lookup_(tdm::GlobalChannel{cfg_ni_, cfg_channel});

  // Phase 1 (Fig. 9 step 1): request channel Cfg -> target, written in the
  // local NI directly through the config shell.
  const link::SourcePath path_to =
      link::SourcePath::FromHops(route_to->hops);
  current_actions_.push_back(Action{
      cfg_ni_, regs::ChannelRegAddr(cfg_channel, regs::ChannelReg::kSpace),
      static_cast<Word>(cnip.dest_queue_words), false});
  current_actions_.push_back(Action{
      cfg_ni_, regs::ChannelRegAddr(cfg_channel, regs::ChannelReg::kPathRqid),
      regs::PackPathRqid(path_to, cnip.channel), false});
  current_actions_.push_back(Action{
      cfg_ni_,
      regs::ChannelRegAddr(cfg_channel, regs::ChannelReg::kThresholds),
      regs::PackThresholds(1, 1), false});
  current_actions_.push_back(Action{
      cfg_ni_, regs::ChannelRegAddr(cfg_channel, regs::ChannelReg::kCtrl),
      regs::kCtrlEnable, true});
  current_actions_.push_back(Action{kInvalidId, 0, 0, false});  // barrier

  // Phase 2 (Fig. 9 step 2): response channel target -> Cfg, via the NoC.
  const link::SourcePath path_back =
      link::SourcePath::FromHops(route_back->hops);
  current_actions_.push_back(Action{
      target, regs::ChannelRegAddr(cnip.channel, regs::ChannelReg::kSpace),
      static_cast<Word>(cfg_dest_words), false});
  current_actions_.push_back(Action{
      target, regs::ChannelRegAddr(cnip.channel, regs::ChannelReg::kPathRqid),
      regs::PackPathRqid(path_back, cfg_channel), false});
  current_actions_.push_back(Action{
      target, regs::ChannelRegAddr(cnip.channel, regs::ChannelReg::kCtrl),
      regs::kCtrlEnable, true});
  current_actions_.push_back(Action{kInvalidId, 0, 0, false});  // barrier
  return true;
}

void ConnectionManager::PushChannelSetup(
    const tdm::GlobalChannel& at, NiId /*peer_unused*/,
    const topology::ChannelRoute& route, int remote_qid, int remote_space,
    const ChannelQos& qos, const std::vector<SlotIndex>& slots,
    bool full_set) {
  const link::SourcePath path = link::SourcePath::FromHops(route.hops);
  current_actions_.push_back(Action{
      at.ni, regs::ChannelRegAddr(at.channel, regs::ChannelReg::kSpace),
      static_cast<Word>(remote_space), false});
  current_actions_.push_back(Action{
      at.ni, regs::ChannelRegAddr(at.channel, regs::ChannelReg::kPathRqid),
      regs::PackPathRqid(path, remote_qid), false});
  if (full_set) {
    current_actions_.push_back(Action{
        at.ni, regs::ChannelRegAddr(at.channel, regs::ChannelReg::kThresholds),
        regs::PackThresholds(qos.data_threshold, qos.credit_threshold),
        false});
    current_actions_.push_back(Action{
        at.ni, regs::ChannelRegAddr(at.channel, regs::ChannelReg::kSlots),
        SlotMask(slots), false});
  } else if (qos.gt) {
    current_actions_.push_back(Action{
        at.ni, regs::ChannelRegAddr(at.channel, regs::ChannelReg::kSlots),
        SlotMask(slots), false});
  }
  current_actions_.push_back(Action{
      at.ni, regs::ChannelRegAddr(at.channel, regs::ChannelReg::kCtrl),
      regs::kCtrlEnable | (qos.gt ? regs::kCtrlGt : 0), true});
  current_actions_.push_back(Action{kInvalidId, 0, 0, false});  // barrier
}

bool ConnectionManager::BuildOpenActions(Record& record) {
  const ConnectionSpec& spec = record.spec;
  auto request_route = topology_->Route(spec.master.ni, spec.slave.ni);
  auto response_route = topology_->Route(spec.slave.ni, spec.master.ni);
  if (!request_route.ok() || !response_route.ok()) {
    FailCurrentOp(NotFoundError("no route between master and slave"));
    return false;
  }
  record.request_route = *request_route;
  record.response_route = *response_route;

  // Centralized slot allocation (the Cfg module owns the tables).
  if (spec.request.gt) {
    auto slots = allocator_->Allocate(record.request_route, spec.master,
                                      spec.request.gt_slots,
                                      spec.request.policy);
    if (!slots.ok()) {
      FailCurrentOp(slots.status());
      return false;
    }
    record.request_slots = *slots;
  }
  if (spec.response.gt) {
    auto slots = allocator_->Allocate(record.response_route, spec.slave,
                                      spec.response.gt_slots,
                                      spec.response.policy);
    if (!slots.ok()) {
      if (spec.request.gt) {
        AETHEREAL_CHECK(allocator_
                            ->Free(record.request_route, spec.master,
                                   record.request_slots)
                            .ok());
        record.request_slots.clear();
      }
      FailCurrentOp(slots.status());
      return false;
    }
    record.response_slots = *slots;
  }

  // Fig. 9 step 3: the slave's response channel first (3 writes + slots if
  // GT), so the slave can accept and answer as soon as the master is live.
  PushChannelSetup(spec.slave, spec.master.ni, record.response_route,
                   spec.master.channel, lookup_(spec.master), spec.response,
                   record.response_slots, /*full_set=*/false);
  // Fig. 9 step 4: the master's request channel (the full 5 writes).
  PushChannelSetup(spec.master, spec.slave.ni, record.request_route,
                   spec.slave.channel, lookup_(spec.slave), spec.request,
                   record.request_slots, /*full_set=*/true);
  return true;
}

bool ConnectionManager::BuildCloseActions(Record& record) {
  if (record.state != ConnectionState::kOpen) {
    // RequestClose rejects terminal states up front, so the only way here
    // is a close queued behind an open that failed afterwards. Complete as
    // a no-op without touching the record: the kFailed state (and its
    // error) must survive for the caller to inspect.
    current_actions_.clear();
    op_active_ = false;
    return false;
  }
  // Disable the master first so no new requests enter the NoC, then the
  // slave; both acknowledged. A GT endpoint additionally clears its SLOTS
  // register (CNIP executes the writes in arrival order, so the disable
  // lands first): the STU releases the slot ownership, without which a
  // later open could never re-program those slots for another channel of
  // the same NI.
  current_actions_.push_back(Action{
      record.spec.master.ni,
      regs::ChannelRegAddr(record.spec.master.channel, regs::ChannelReg::kCtrl),
      0, true});
  if (!record.request_slots.empty()) {
    current_actions_.push_back(Action{
        record.spec.master.ni,
        regs::ChannelRegAddr(record.spec.master.channel,
                             regs::ChannelReg::kSlots),
        0, true});
  }
  current_actions_.push_back(Action{kInvalidId, 0, 0, false});
  current_actions_.push_back(Action{
      record.spec.slave.ni,
      regs::ChannelRegAddr(record.spec.slave.channel, regs::ChannelReg::kCtrl),
      0, true});
  if (!record.response_slots.empty()) {
    current_actions_.push_back(Action{
        record.spec.slave.ni,
        regs::ChannelRegAddr(record.spec.slave.channel,
                             regs::ChannelReg::kSlots),
        0, true});
  }
  current_actions_.push_back(Action{kInvalidId, 0, 0, false});
  return true;
}

void ConnectionManager::StartNextOp() {
  while (!op_active_ && !ops_.empty()) {
    current_op_ = ops_.front();
    ops_.pop_front();
    op_active_ = true;
    bool built = false;
    switch (current_op_.kind) {
      case Op::Kind::kEnsureConfig:
        built = BuildEnsureConfigActions(current_op_.target);
        if (built && current_actions_.empty()) {
          // Already live: nothing to do.
          op_active_ = false;
          continue;
        }
        break;
      case Op::Kind::kOpenData:
        built = BuildOpenActions(
            records_[static_cast<std::size_t>(current_op_.handle)]);
        break;
      case Op::Kind::kCloseData:
        built = BuildCloseActions(
            records_[static_cast<std::size_t>(current_op_.handle)]);
        break;
    }
    if (!built) continue;  // op failed during build; try the next one
  }
}

Cycle ConnectionManager::RetryDeadline(const OutstandingWrite& write) const {
  // Exponential backoff per attempt, saturated at the longest spec-nameable
  // wait: the timeout is at most kMaxCycles and the backoff at most 8, so
  // nothing overflows.
  Cycle window = retry_.timeout;
  for (int a = 0; a < write.attempt && a < 16; ++a) {
    window = std::min(window * retry_.backoff, kMaxCycles);
  }
  return write.issued_at + window;
}

ConnectionManager::TimeoutScan ConnectionManager::ScanForTimeouts() {
  for (OutstandingWrite& write : outstanding_writes_) {
    if (CycleCount() < RetryDeadline(write)) continue;
    if (write.attempt >= retry_.max_retries) {
      ++ack_timeouts_;
      FailCurrentOp(RetriesExhaustedError(
          "configuration write to NI " + std::to_string(write.action.ni) +
          " lost " + std::to_string(write.attempt + 1) +
          " time(s); retry budget exhausted"));
      return TimeoutScan::kOpFailed;
    }
    // Counted only when the re-issue actually happens, so a shell backlog
    // does not tally the same expiry once per waiting cycle.
    if (!shell_->CanIssue()) return TimeoutScan::kReissued;  // next cycle
    ++ack_timeouts_;
    // Abandon the timed-out tid (its ack may still arrive late and will be
    // drained) and re-issue the same write under a fresh transaction.
    abandoned_tids_.push_back(write.tid);
    auto it = std::find(outstanding_tids_.begin(), outstanding_tids_.end(),
                        write.tid);
    AETHEREAL_CHECK(it != outstanding_tids_.end());
    outstanding_tids_.erase(it);
    write.attempt += 1;
    write.issued_at = CycleCount();
    write.tid = shell_->WriteRegister(write.action.ni, write.action.reg,
                                      write.action.value, /*acked=*/true);
    outstanding_tids_.push_back(write.tid);
    ++writes_retried_;
    return TimeoutScan::kReissued;  // one register write per cycle
  }
  return TimeoutScan::kNothing;
}

void ConnectionManager::Evaluate() {
  // Drain stale acks of abandoned (timed-out and re-issued) writes.
  transaction::ResponseMessage rsp;
  while (!abandoned_tids_.empty() &&
         shell_->TakeResponseFor(abandoned_tids_, &rsp)) {
    auto it = std::find(abandoned_tids_.begin(), abandoned_tids_.end(),
                        rsp.transaction_id);
    AETHEREAL_CHECK(it != abandoned_tids_.end());
    abandoned_tids_.erase(it);
  }

  // Collect acknowledgments addressed to this manager (the config shell may
  // be shared with other agents; take only our transaction ids).
  while (shell_->TakeResponseFor(outstanding_tids_, &rsp)) {
    auto it = std::find(outstanding_tids_.begin(), outstanding_tids_.end(),
                        rsp.transaction_id);
    AETHEREAL_CHECK(it != outstanding_tids_.end());
    outstanding_tids_.erase(it);
    if (retry_.enabled) {
      auto wit = std::find_if(outstanding_writes_.begin(),
                              outstanding_writes_.end(),
                              [&](const OutstandingWrite& w) {
                                return w.tid == rsp.transaction_id;
                              });
      if (wit != outstanding_writes_.end()) outstanding_writes_.erase(wit);
    }
    if (rsp.error != ResponseError::kOk && op_active_) {
      FailCurrentOp(FailedPreconditionError("configuration write rejected"));
      return;
    }
  }

  // Ack-timeout scan: a pending re-issue takes priority over new actions
  // (the phase barrier cannot pass without the lost write anyway).
  if (retry_.enabled && op_active_ && !outstanding_writes_.empty()) {
    if (ScanForTimeouts() != TimeoutScan::kNothing) return;
  }

  StartNextOp();
  if (!op_active_) return;

  // Barrier handling and action issue (one register write per cycle).
  if (!current_actions_.empty()) {
    const Action& action = current_actions_.front();
    if (action.ni == kInvalidId) {
      // Barrier: wait for every outstanding acknowledgment.
      if (!outstanding_tids_.empty()) return;
      current_actions_.pop_front();
      return;
    }
    if (!shell_->CanIssue()) return;
    // Under a retry policy every write is acknowledged: an unacked write
    // that the fault model drops could never be detected.
    const bool acked = action.acked || retry_.enabled;
    const int tid =
        shell_->WriteRegister(action.ni, action.reg, action.value, acked);
    if (acked) {
      outstanding_tids_.push_back(tid);
      if (retry_.enabled) {
        outstanding_writes_.push_back(
            OutstandingWrite{tid, action, CycleCount(), 0});
      }
    }
    if (current_op_.handle >= 0) {
      ++records_[static_cast<std::size_t>(current_op_.handle)].config_writes;
    }
    current_actions_.pop_front();
    return;
  }

  // All actions issued and all barriers passed: the op completes.
  if (!outstanding_tids_.empty()) return;
  switch (current_op_.kind) {
    case Op::Kind::kEnsureConfig:
      config_live_[current_op_.target] = true;
      break;
    case Op::Kind::kOpenData: {
      Record& record = records_[static_cast<std::size_t>(current_op_.handle)];
      record.state = ConnectionState::kOpen;
      record.completed_at = CycleCount();
      if (on_connections_changed_) on_connections_changed_();
      break;
    }
    case Op::Kind::kCloseData: {
      Record& record = records_[static_cast<std::size_t>(current_op_.handle)];
      if (!record.request_slots.empty()) {
        AETHEREAL_CHECK(allocator_
                            ->Free(record.request_route, record.spec.master,
                                   record.request_slots)
                            .ok());
        record.request_slots.clear();
      }
      if (!record.response_slots.empty()) {
        AETHEREAL_CHECK(allocator_
                            ->Free(record.response_route, record.spec.slave,
                                   record.response_slots)
                            .ok());
        record.response_slots.clear();
      }
      record.state = ConnectionState::kClosed;
      record.completed_at = CycleCount();
      if (on_connections_changed_) on_connections_changed_();
      break;
    }
  }
  ++operations_completed_;
  op_active_ = false;
}

}  // namespace aethereal::config
