#include "core/ni_kernel.h"

#include <algorithm>
#include <bit>

#include "fault/injector.h"
#include "link/flit.h"
#include "util/check.h"

namespace aethereal::core {

using link::Flit;
using link::FlitKind;
using link::PacketHeader;

// ---------------------------------------------------------------------------
// NiPort
// ---------------------------------------------------------------------------

NiPort::NiPort(std::string name, NiKernel* kernel, ChannelId first_channel,
               int num_channels)
    : name_(std::move(name)),
      kernel_(kernel),
      first_channel_(first_channel),
      num_channels_(num_channels) {}

bool NiPort::CanWrite(int connid, int words) const {
  AETHEREAL_CHECK(words >= 0);
  const auto& ch = kernel_->ChannelAt(GlobalChannelOf(connid));
  return ch.source.WriterSpace() >= words;
}

void NiPort::Write(int connid, Word word) {
  auto& ch = kernel_->ChannelAt(GlobalChannelOf(connid));
  AETHEREAL_CHECK_MSG(ch.source.CanPush(),
                      name() << ": source queue overflow on connid " << connid);
  const Cycle stamp = ch.source.Push(word);
  if (stamp != sim::kNoEdge) {
    kernel_->WakeForSourceWord(GlobalChannelOf(connid), stamp);
    if (kernel_->queue_watcher_ != nullptr) {
      kernel_->queue_watcher_->NoteHandOff(kernel_->id(), *kernel_->clock(),
                                           stamp);
    }
  }
}

int NiPort::ReadAvailable(int connid) const {
  const auto& ch = kernel_->ChannelAt(GlobalChannelOf(connid));
  return ch.dest.ReaderAvailable();
}

Word NiPort::Read(int connid) {
  auto& ch = kernel_->ChannelAt(GlobalChannelOf(connid));
  AETHEREAL_CHECK_MSG(ch.dest.CanPop(),
                      name() << ": destination queue underflow on connid "
                             << connid);
  kernel_->harvest_ |= NiKernel::Bit(GlobalChannelOf(connid));
  return ch.dest.Pop();
}

void NiPort::FlushData(int connid) {
  auto& ch = kernel_->ChannelAt(GlobalChannelOf(connid));
  ch.data_flush_reqs.Set(ch.data_flush_reqs.Get() + 1);
  kernel_->harvest_ |= NiKernel::Bit(GlobalChannelOf(connid));
  WakeKernelForFlush();
}

void NiPort::FlushCredits(int connid) {
  auto& ch = kernel_->ChannelAt(GlobalChannelOf(connid));
  ch.credit_flush_reqs.Set(ch.credit_flush_reqs.Get() + 1);
  kernel_->harvest_ |= NiKernel::Bit(GlobalChannelOf(connid));
  WakeKernelForFlush();
}

void NiPort::WakeKernelForFlush() {
  // The request lands once this port's current edge (its next edge, when
  // raised between steps) has passed: the kernel must evaluate at its
  // first slot boundary after that instant, however slow the port clock.
  kernel_->WakeAt(kernel_->clock()->FirstEdgeFrom(clock()->next_edge_ps() + 1));
}

ChannelId NiPort::GlobalChannelOf(int connid) const {
  AETHEREAL_CHECK(connid >= 0 && connid < NumChannels());
  return first_channel_ + connid;
}

void NiPort::WakeOnDelivery(int connid, sim::Module* listener) {
  auto& ch = kernel_->ChannelAt(GlobalChannelOf(connid));
  ch.dest.AddReadListener(listener);
}

Cycle NiPort::WakeOnSpace(int connid, sim::Module* listener) {
  auto& ch = kernel_->ChannelAt(GlobalChannelOf(connid));
  return ch.source.WakeOnSpace(listener);
}

// ---------------------------------------------------------------------------
// NiKernel construction
// ---------------------------------------------------------------------------

namespace {

// Configuration bursts are small; the staging vector is reserved for this
// many writes so it stays allocation-free in steady state (it is empty
// outside configuration).
constexpr std::size_t kReservedRegisterWrites = regs::kRegsPerChannel * 4;

}  // namespace

NiKernel::NiKernel(std::string name, NiId id, const NiKernelParams& params,
                   std::pmr::memory_resource* storage)
    : sim::Module(std::move(name)),
      id_(id),
      params_(params),
      pending_register_writes_(storage) {
  AETHEREAL_CHECK(params.stu_slots > 0);
  AETHEREAL_CHECK_MSG(params.stu_slots <= regs::kMaxStuSlots,
                      "SLOTS register is a 32-bit mask; stu_slots must be <= "
                          << regs::kMaxStuSlots);
  AETHEREAL_CHECK(params.max_packet_flits > 0);
  AETHEREAL_CHECK_MSG(params.TotalChannels() > 0, "NI with no channels");
  AETHEREAL_CHECK_MSG(params.TotalChannels() <= link::kMaxQueueId + 1,
                      "more channels than the header qid field can address");

  stu_.fill(kInvalidId);
  pending_register_writes_.reserve(kReservedRegisterWrites);

  channels_.Reset(static_cast<std::size_t>(params.TotalChannels()), storage);
  ports_.Reset(params.ports.size(), storage);
  for (std::size_t p = 0; p < params.ports.size(); ++p) {
    const auto& port_params = params.ports[p];
    const auto first = static_cast<ChannelId>(channels_.size());
    for (const auto& cp : port_params.channels) {
      AETHEREAL_CHECK(cp.source_queue_words > 0 && cp.dest_queue_words > 0);
      Channel* ch = channels_.Emplace(cp.source_queue_words,
                                      cp.dest_queue_words, storage);
      ch->port = static_cast<int>(p);
      ch->connid = static_cast<int>(channels_.size()) - 1 - first;
      ch->params = cp;
    }
    ports_.Emplace(this->name() + "." +
                       (port_params.name.empty() ? "port" + std::to_string(p)
                                                 : port_params.name),
                   this, first, static_cast<int>(port_params.channels.size()));
  }
  SetEvaluateStride(kFlitWords);  // all work happens at slot boundaries
}

std::size_t NiKernel::StorageBytes(const NiKernelParams& params) {
  const auto channels = static_cast<std::size_t>(params.TotalChannels());
  std::size_t bytes = sim::Slab<Channel>::BytesFor(channels) +
                      sim::Slab<NiPort>::BytesFor(params.ports.size()) +
                      kReservedRegisterWrites * sizeof(PendingWrite) +
                      (3 + 2 * channels) * sim::kAllocationPad;
  for (const PortParams& port : params.ports) {
    for (const ChannelParams& cp : port.channels) {
      bytes += static_cast<std::size_t>(cp.source_queue_words +
                                        cp.dest_queue_words) *
               sizeof(Word);
    }
  }
  return bytes;
}

NiKernel::~NiKernel() = default;

void NiKernel::ConnectToRouter(link::LinkWires* to_router,
                               link::LinkWires* from_router,
                               int router_be_capacity) {
  AETHEREAL_CHECK(to_router != nullptr && from_router != nullptr);
  AETHEREAL_CHECK(router_be_capacity > 0);
  to_router_ = to_router;
  from_router_ = from_router;
  be_link_credits_ = router_be_capacity;
  router_be_capacity_ = router_be_capacity;
  // Delivered flits must find us running. Returned link credits wake
  // nobody: they are counted on the credit wire, and only a kernel with a
  // BE flit to send reads them, which keeps it running (ParkUntilWork).
  from_router->data.SetConsumer(this);
}

NiPort* NiKernel::port(int index) {
  AETHEREAL_CHECK(index >= 0 && index < NumPorts());
  return &ports_[static_cast<std::size_t>(index)];
}

void NiKernel::BindPortClock(int index, sim::Clock* clock) {
  NiPort* p = port(index);
  AETHEREAL_CHECK_MSG(clock != nullptr && p->clock_ == nullptr,
                      p->name() << ": bind one clock, once");
  p->clock_ = clock;
  for (int connid = 0; connid < p->NumChannels(); ++connid) {
    Channel& ch = ChannelAt(p->GlobalChannelOf(connid));
    // No module to wake on the port side: a writer blocked on a full
    // source queue arms WakeOnSpace, and readers listen (WakeOnDelivery).
    ch.source.Bind(/*writer=*/clock, /*reader=*/this);
    ch.dest.Bind(/*writer=*/this, /*reader=*/clock);
    ch.data_flush_reqs.Bind(clock);
    ch.credit_flush_reqs.Bind(clock);
  }
}

NiKernel::Channel& NiKernel::ChannelAt(ChannelId ch) {
  AETHEREAL_CHECK_MSG(ch >= 0 && ch < static_cast<ChannelId>(channels_.size()),
                      name() << ": channel " << ch << " out of range");
  return channels_[static_cast<std::size_t>(ch)];
}

const NiKernel::Channel& NiKernel::ChannelAt(ChannelId ch) const {
  AETHEREAL_CHECK(ch >= 0 && ch < static_cast<ChannelId>(channels_.size()));
  return channels_[static_cast<std::size_t>(ch)];
}

// ---------------------------------------------------------------------------
// Memory-mapped configuration
// ---------------------------------------------------------------------------

Status NiKernel::WriteRegister(Word address, Word value) {
  if (address < regs::kChannelBase) {
    return FailedPreconditionError("NI info registers are read-only");
  }
  const Word rel = address - regs::kChannelBase;
  const auto ch = static_cast<ChannelId>(rel / regs::kRegsPerChannel);
  const Word reg = rel % regs::kRegsPerChannel;
  if (ch >= static_cast<ChannelId>(channels_.size())) {
    return NotFoundError("channel register address out of range");
  }
  if (reg > static_cast<Word>(regs::ChannelReg::kSlots)) {
    return NotFoundError("unknown channel register");
  }
  if (reg == static_cast<Word>(regs::ChannelReg::kSlots)) {
    // Slot ownership changes only through register writes, so a conflict
    // is known, and fatal, as soon as the claim is staged.
    for (SlotIndex s = 0; s < params_.stu_slots; ++s) {
      if ((value & (1u << s)) == 0) continue;
      const ChannelId owner = StagedSlotOwner(s);
      AETHEREAL_CHECK_MSG(owner == kInvalidId || owner == ch,
                          name() << ": STU slot " << s
                                 << " already owned by channel " << owner);
    }
  }
  if (reg == static_cast<Word>(regs::ChannelReg::kSlots) ||
      reg == static_cast<Word>(regs::ChannelReg::kCtrl)) {
    // A parked kernel may have put off the wake for a GT word in flight to
    // the slot its channel owns now (WakeForSourceWord). This write can
    // move that slot or end the channel's GT service, so the words still
    // in flight get timer wakes at their own stamps.
    for (ChannelMask m = enabled_; m != 0; m &= m - 1) {
      const int id = std::countr_zero(m);
      const Channel& ch = channels_[static_cast<std::size_t>(id)];
      if (!ch.gt) continue;
      ch.source.ForEachHandOffInFlight([this](Cycle s) { TimerAt(s); });
    }
    if (table_write_hook_) table_write_hook_();
  }
  const Cycle edge = clock() != nullptr ? CycleCount() : 0;
  pending_register_writes_.push_back(PendingWrite{edge, address, value});
  // The write lands after this edge; wake so the *scheduling* consequences
  // (enable, slots, thresholds) are acted on from the next slot boundary.
  // A pending write keeps the kernel from parking until it has landed.
  Wake();
  return OkStatus();
}

ChannelId NiKernel::StagedSlotOwner(SlotIndex slot) const {
  ChannelId owner = stu_[static_cast<std::size_t>(slot)];
  for (const PendingWrite& w : pending_register_writes_) {
    const Word rel = w.address - regs::kChannelBase;
    if (rel % regs::kRegsPerChannel !=
        static_cast<Word>(regs::ChannelReg::kSlots)) {
      continue;
    }
    const auto chid = static_cast<ChannelId>(rel / regs::kRegsPerChannel);
    if ((w.value & (1u << slot)) != 0) {
      owner = chid;
    } else if (owner == chid) {
      owner = kInvalidId;
    }
  }
  return owner;
}

void NiKernel::WakeForSourceWord(ChannelId chid, Cycle stamp) {
  if (!parked() || !pending_register_writes_.empty() || !Enabled(chid) ||
      !ChannelAt(chid).gt) {
    WakeAt(stamp);
    return;
  }
  // A parked kernel acts on a GT channel's word only in an owned slot: in
  // any other slot it would just park until one.
  const Cycle first_slot = (stamp + kFlitWords - 1) / kFlitWords;
  for (Cycle d = 0; d < params_.stu_slots; ++d) {
    const Cycle slot = first_slot + d;
    if (stu_[static_cast<std::size_t>(slot % params_.stu_slots)] == chid) {
      WakeAt(slot * kFlitWords);
      return;
    }
  }
}

void NiKernel::ApplyRegisterWrites() {
  if (pending_register_writes_.empty() || clock() == nullptr) return;
  const Cycle now = CycleCount();
  auto due = pending_register_writes_.begin();
  for (; due != pending_register_writes_.end() && due->edge < now; ++due) {
    // Count the slots scheduled before the write changes enable/slot-table
    // state: they ran with the pre-write configuration.
    CountSlotsThrough(due->edge / kFlitWords);
    ApplyRegisterWrite(due->address, due->value);
  }
  pending_register_writes_.erase(pending_register_writes_.begin(), due);
}

Result<Word> NiKernel::ReadRegister(Word address) {
  switch (address) {
    case regs::kStuSize:
      return static_cast<Word>(params_.stu_slots);
    case regs::kNumChannels:
      return static_cast<Word>(channels_.size());
    case regs::kNumPorts:
      return static_cast<Word>(ports_.size());
    default:
      break;
  }
  if (address < regs::kChannelBase) return NotFoundError("unknown register");
  const Word rel = address - regs::kChannelBase;
  const auto chid = static_cast<ChannelId>(rel / regs::kRegsPerChannel);
  const Word reg = rel % regs::kRegsPerChannel;
  if (chid >= static_cast<ChannelId>(channels_.size())) {
    return NotFoundError("channel register address out of range");
  }
  ApplyRegisterWrites();
  const Channel& ch = ChannelAt(chid);
  switch (static_cast<regs::ChannelReg>(reg)) {
    case regs::ChannelReg::kCtrl:
      return static_cast<Word>((Enabled(chid) ? regs::kCtrlEnable : 0) |
                               (ch.gt ? regs::kCtrlGt : 0));
    case regs::ChannelReg::kSpace:
      return static_cast<Word>(ch.space);
    case regs::ChannelReg::kPathRqid:
      return regs::PackPathRqid(ch.path, ch.remote_qid);
    case regs::ChannelReg::kThresholds:
      return regs::PackThresholds(ch.data_threshold, ch.credit_threshold);
    case regs::ChannelReg::kSlots: {
      Word mask = 0;
      for (SlotIndex s = 0; s < params_.stu_slots; ++s) {
        if (stu_[static_cast<std::size_t>(s)] == chid) mask |= (1u << s);
      }
      return mask;
    }
    default:
      return NotFoundError("unknown channel register");
  }
}

void NiKernel::ApplyRegisterWrite(Word address, Word value) {
  const Word rel = address - regs::kChannelBase;
  const auto chid = static_cast<ChannelId>(rel / regs::kRegsPerChannel);
  const Word reg = rel % regs::kRegsPerChannel;
  Channel& ch = ChannelAt(chid);
  switch (static_cast<regs::ChannelReg>(reg)) {
    case regs::ChannelReg::kCtrl: {
      const bool enable = (value & regs::kCtrlEnable) != 0;
      const bool gt = (value & regs::kCtrlGt) != 0;
      const bool was_enabled = Enabled(chid);
      AETHEREAL_CHECK_MSG(!(was_enabled && !enable && ch.open_words_left > 0),
                          name() << ": channel " << chid
                                 << " disabled mid-packet");
      if (enable && !was_enabled) {
        // (Re)opening: reset run-time state.
        ch.credits_owed = 0;
        ch.open_words_left = 0;
        ch.flush_words_left = 0;
        ch.credit_flush = false;
      }
      if (enable) {
        enabled_ |= Bit(chid);
      } else {
        enabled_ &= ~Bit(chid);
      }
      ch.gt = gt;
      if (enable && !gt) {
        // A best-effort channel must not own TDM slots. Checked here (not
        // only in Schedule()) so the misconfiguration is fatal even while
        // the kernel is idle-gated.
        for (SlotIndex s = 0; s < params_.stu_slots; ++s) {
          AETHEREAL_CHECK_MSG(stu_[static_cast<std::size_t>(s)] != chid,
                              name() << ": STU slot " << s
                                     << " owned by best-effort channel "
                                     << chid);
        }
      }
      break;
    }
    case regs::ChannelReg::kSpace:
      ch.space = static_cast<int>(value);
      ch.space_init = static_cast<int>(value);
      break;
    case regs::ChannelReg::kPathRqid:
      ch.path = regs::UnpackPath(value);
      ch.remote_qid = regs::UnpackRqid(value);
      break;
    case regs::ChannelReg::kThresholds:
      ch.data_threshold = regs::UnpackDataThreshold(value);
      ch.credit_threshold = regs::UnpackCreditThreshold(value);
      break;
    case regs::ChannelReg::kSlots: {
      for (SlotIndex s = 0; s < params_.stu_slots; ++s) {
        const bool want = (value & (1u << s)) != 0;
        ChannelId& owner = stu_[static_cast<std::size_t>(s)];
        if (want) {
          // Conflicting claims were rejected when staged (WriteRegister).
          AETHEREAL_CHECK_MSG(!(Enabled(chid) && !ch.gt),
                              name() << ": STU slot " << s
                                     << " owned by best-effort channel "
                                     << chid);
          owner = chid;
        } else if (owner == chid) {
          owner = kInvalidId;
        }
      }
      break;
    }
    default:
      AETHEREAL_CHECK_MSG(false, "unreachable: validated in WriteRegister");
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

const ChannelStats& NiKernel::channel_stats(ChannelId ch) const {
  return ChannelAt(ch).stats;
}
int NiKernel::SpaceOf(ChannelId ch) {
  ApplyRegisterWrites();
  return ChannelAt(ch).space;
}
int NiKernel::CreditsOwedOf(ChannelId ch) {
  ApplyRegisterWrites();
  return ChannelAt(ch).credits_owed;
}
ChannelId NiKernel::SlotOwner(SlotIndex slot) {
  AETHEREAL_CHECK(slot >= 0 && slot < params_.stu_slots);
  ApplyRegisterWrites();
  return stu_[static_cast<std::size_t>(slot)];
}
SlotIndex NiKernel::CurrentSlot() const {
  return static_cast<SlotIndex>((CycleCount() / kFlitWords) %
                                params_.stu_slots);
}
bool NiKernel::ChannelEnabled(ChannelId ch) {
  ApplyRegisterWrites();
  AETHEREAL_CHECK(ch >= 0 && ch < NumChannels());
  return Enabled(ch);
}

// ---------------------------------------------------------------------------
// Cycle behaviour
// ---------------------------------------------------------------------------

void NiKernel::Evaluate() {
  if (!IsSlotBoundary()) return;
  ApplyRegisterWrites();
  const Cycle slot_number = CycleCount() / kFlitWords;
  if (from_router_ != nullptr) ReceiveFlit();
  HarvestCreditsAndFlushes();
  if (to_router_ != nullptr) Schedule();
  ParkUntilWork(slot_number);
}

void NiKernel::ParkUntilWork(Cycle slot_number) {
  // Open packets, pending register writes and eligible BE channels keep us
  // running: BE work is granted the next free slot. Only enabled channels
  // can send or hold an open packet (a disable mid-packet is fatal).
  if (rx_qid_gt_ != kInvalidId || rx_qid_be_ != kInvalidId) return;
  if (be_open_channel_ != kInvalidId) return;
  if (!pending_register_writes_.empty()) return;
  ChannelMask gt_eligible = 0;
  for (ChannelMask m = enabled_; m != 0; m &= m - 1) {
    const int id = std::countr_zero(m);
    const Channel& ch = channels_[static_cast<std::size_t>(id)];
    if (ch.open_words_left > 0) return;
    if (!Eligible(ch)) continue;
    if (!ch.gt) return;
    gt_eligible |= Bit(id);
  }
  // Sleep through the wait for a reserved TDM slot: wake at the earliest
  // slot owned by an eligible GT channel. The skipped slots are exactly the
  // slots the naïve engine spends scanning an unchanged schedule (it grants
  // nothing until that same slot). With no such slot, nothing can be sent
  // until an external event (wire drive, queue hand-off, flush, register
  // write) wakes us.
  if (gt_eligible != 0) {
    for (Cycle d = 1; d <= params_.stu_slots; ++d) {
      const ChannelId owner =
          stu_[static_cast<std::size_t>((slot_number + d) % params_.stu_slots)];
      if (owner != kInvalidId && (gt_eligible & Bit(owner)) != 0) {
        ParkUntil((slot_number + d) * kFlitWords);
        return;
      }
    }
  }
  Park();
}

void NiKernel::CountSlotsThrough(Cycle last_slot) {
  if (last_slot <= last_counted_slot_) return;
  const Cycle first = last_counted_slot_ + 1;
  last_counted_slot_ = last_slot;
  if (to_router_ == nullptr) return;  // nothing is ever scheduled
  const Cycle slots = last_slot - first + 1;
  scheduled_slots_ += slots;
  Cycle owned_enabled = 0;  // enabled-owner slots per full table rotation
  for (SlotIndex s = 0; s < params_.stu_slots; ++s) {
    const ChannelId owner = stu_[static_cast<std::size_t>(s)];
    if (owner != kInvalidId && Enabled(owner)) ++owned_enabled;
  }
  if (owned_enabled == 0) return;
  const Cycle rotations = slots / params_.stu_slots;
  owner_slots_ += rotations * owned_enabled;
  for (Cycle s = first + rotations * params_.stu_slots; s <= last_slot; ++s) {
    const ChannelId owner =
        stu_[static_cast<std::size_t>(s % params_.stu_slots)];
    if (owner != kInvalidId && Enabled(owner)) ++owner_slots_;
  }
}

const NiKernelStats& NiKernel::stats() {
  ApplyRegisterWrites();
  if (clock() != nullptr && CycleCount() > 0) {
    CountSlotsThrough((CycleCount() - 1) / kFlitWords);
  }
  stats_.idle_slots = scheduled_slots_ - stats_.gt_flits - stats_.be_flits -
                      stats_.be_link_stalls;
  stats_.gt_slots_unused = owner_slots_ - stats_.gt_flits;
  return stats_;
}

void NiKernel::ReceiveFlit() {
  const Flit& flit = from_router_->data.Sample();
  if (flit.IsIdle()) return;

  // One packet per traffic class may be in flight on the delivery link (GT
  // preempts BE at slot boundaries upstream).
  int& rx_qid = flit.gt ? rx_qid_gt_ : rx_qid_be_;

  int word_index = 0;
  if (flit.kind == FlitKind::kHeader) {
    const PacketHeader header = PacketHeader::Decode(flit.words[0]);
    AETHEREAL_CHECK_MSG(header.path.Exhausted(),
                        name() << ": packet arrived with unconsumed path");
    AETHEREAL_CHECK_MSG(
        header.remote_qid < static_cast<int>(channels_.size()),
        name() << ": packet addresses queue " << header.remote_qid
               << " of " << channels_.size());
    AETHEREAL_CHECK_MSG(rx_qid == kInvalidId,
                        name() << ": header while a packet of the same "
                               << "class is open");
    rx_qid = header.remote_qid;
    Channel& ch = ChannelAt(rx_qid);
    // Note: reception is not gated by the enable bit — the queues exist
    // physically, and in-flight packets (e.g. final credit returns during a
    // connection close) may legitimately arrive after the channel has been
    // disabled. Enable only gates the scheduler.
    //
    // Piggybacked credits replenish the Space counter of the paired
    // (reverse-direction) source queue, which is the same channel index.
    ch.space += header.credits;
    AETHEREAL_CHECK_MSG(ch.space <= ch.space_init,
                        name() << ": credit overflow on channel " << rx_qid
                               << " (space " << ch.space << " > init "
                               << ch.space_init << ")");
    word_index = 1;
    ++stats_.packets_received;
  } else {
    AETHEREAL_CHECK_MSG(rx_qid != kInvalidId,
                        name() << ": payload flit with no packet open");
  }

  Channel& ch = ChannelAt(rx_qid);
  for (; word_index < flit.valid_words; ++word_index) {
    AETHEREAL_CHECK_MSG(ch.dest.CanPush(),
                        name() << ": destination queue overflow on channel "
                               << rx_qid << " — end-to-end flow control "
                               << "violated");
    const Cycle stamp =
        ch.dest.Push(flit.words[static_cast<std::size_t>(word_index)]);
    if (stamp != sim::kNoEdge && queue_watcher_ != nullptr) {
      queue_watcher_->NoteHandOff(
          id_, *ports_[static_cast<std::size_t>(ch.port)].clock(), stamp);
    }
    ++ch.stats.words_received;
    ++stats_.payload_words_received;
  }
  if (flit.eop) rx_qid = kInvalidId;

  // Return one link-level credit per BE flit consumed (the NI always sinks
  // flits: end-to-end flow control already guaranteed destination space).
  if (!flit.gt) from_router_->credit_return.Drive(1);
}

void NiKernel::HarvestCreditsAndFlushes() {
  for (ChannelMask m = harvest_; m != 0; m &= m - 1) {
    const int id = std::countr_zero(m);
    Channel& ch = channels_[static_cast<std::size_t>(id)];
    const int freed = ch.dest.TakeFreedForWriter();
    if (freed > 0) {
      ch.credits_owed += freed;
      AETHEREAL_CHECK_MSG(ch.credits_owed <= ch.params.dest_queue_words,
                          name() << ": credits owed exceed queue capacity");
    }
    if (ch.data_flush_reqs.Get() > ch.data_flush_seen) {
      ch.data_flush_seen = ch.data_flush_reqs.Get();
      // Snapshot of the source-queue filling at flush time (paper §4.1).
      ch.flush_words_left = ch.source.ReaderSize();
    }
    if (ch.credit_flush_reqs.Get() > ch.credit_flush_seen) {
      ch.credit_flush_seen = ch.credit_flush_reqs.Get();
      ch.credit_flush = true;
    }
    if (ch.credit_flush && ch.credits_owed == 0) ch.credit_flush = false;
    // A channel left out of harvest_ has nothing for a later harvest: no
    // space return to take, no flush request above its seen count, and no
    // credit flush pending.
    if (!ch.dest.HasPendingReturns() &&
        ch.data_flush_reqs.LastSet() == ch.data_flush_seen &&
        ch.credit_flush_reqs.LastSet() == ch.credit_flush_seen &&
        !ch.credit_flush) {
      harvest_ &= ~Bit(id);
    }
  }
}

int NiKernel::SendableWords(const Channel& ch) const {
  // Net of this slot's pops (the kernel is the only reader): the same as
  // the readable size until EmitFlit pops, and what is left after it, so
  // the park decision that ends the slot sees the flit as sent.
  return std::min(ch.source.ReaderAvailable(), ch.space);
}

bool NiKernel::Eligible(const Channel& ch) const {
  // A channel whose path register was never configured has nowhere to send
  // (e.g. a CNIP channel enabled at reset that has already consumed
  // configuration messages but whose response direction is not yet set up,
  // Fig. 9 step 2).
  if (ch.path.Exhausted()) return false;
  const int sendable = SendableWords(ch);
  const bool data_ok =
      sendable >= std::max(1, ch.data_threshold) ||
      (ch.flush_words_left > 0 && sendable > 0);
  const bool credit_ok =
      ch.credits_owed >= std::max(1, ch.credit_threshold) ||
      (ch.credit_flush && ch.credits_owed > 0);
  return data_ok || credit_ok;
}

int NiKernel::GtRunWords(ChannelId ch, SlotIndex slot) const {
  int run = 0;
  while (run < params_.stu_slots &&
         stu_[static_cast<std::size_t>((slot + run) % params_.stu_slots)] == ch) {
    ++run;
  }
  return run * kFlitWords - 1;  // the header consumes one word
}

void NiKernel::Schedule() {
  const SlotIndex slot = CurrentSlot();
  ChannelId granted = kInvalidId;

  // Fault stall window: the scheduler grants nothing this slot (transient
  // scheduling fault, DESIGN.md §12), which the stats count as idle.
  if (fault_ != nullptr && fault_->NiStalled(id_, CycleCount())) return;

  const ChannelId owner = stu_[static_cast<std::size_t>(slot)];
  if (owner != kInvalidId) {
    Channel& oc = ChannelAt(owner);
    if (Enabled(owner)) {
      AETHEREAL_CHECK_MSG(oc.gt,
                          name() << ": STU slot " << slot
                                 << " owned by best-effort channel " << owner);
      if (oc.open_words_left > 0 || Eligible(oc)) granted = owner;
    }
  }

  if (granted == kInvalidId) {
    if (be_open_channel_ != kInvalidId) {
      // Wormhole: the open BE packet continues before anything else.
      if (!HasBeLinkCredit()) {
        ++stats_.be_link_stalls;
        return;
      }
      granted = be_open_channel_;
    } else {
      granted = ArbitrateBe();
      if (granted != kInvalidId && !HasBeLinkCredit()) {
        ++stats_.be_link_stalls;
        return;
      }
    }
  }

  if (granted != kInvalidId) EmitFlit(granted);
}

bool NiKernel::HasBeLinkCredit() {
  if (be_link_credits_ <= 0) {
    be_link_credits_ += to_router_->credit_return.TakeDriven();
    AETHEREAL_CHECK_MSG(be_link_credits_ <= router_be_capacity_,
                        name() << ": holds " << be_link_credits_
                               << " link credits, over the router's BE"
                                  " buffer of "
                               << router_be_capacity_);
  }
  return be_link_credits_ > 0;
}

ChannelId NiKernel::ArbitrateBe() {
  const auto num = static_cast<int>(channels_.size());
  switch (params_.be_arbitration) {
    case BeArbitration::kRoundRobin: {
      const ChannelId id = FirstEligibleBe(rr_pointer_);
      if (id != kInvalidId) rr_pointer_ = (id + 1) % num;
      return id;
    }
    case BeArbitration::kWeightedRoundRobin: {
      // The current channel keeps the grant for `weight` packets.
      const Channel& current =
          channels_[static_cast<std::size_t>(rr_pointer_)];
      if (wrr_grants_left_ > 0 && Enabled(rr_pointer_) && !current.gt &&
          Eligible(current)) {
        --wrr_grants_left_;
        return static_cast<ChannelId>(rr_pointer_);
      }
      const ChannelId id = FirstEligibleBe(rr_pointer_ + 1);
      if (id != kInvalidId) {
        rr_pointer_ = id;
        wrr_grants_left_ = ChannelAt(id).params.weight - 1;
      }
      return id;
    }
    case BeArbitration::kQueueFill: {
      // Ascending ids, so the lowest of the fullest channels wins.
      ChannelId best = kInvalidId;
      int best_fill = -1;
      for (ChannelMask m = enabled_; m != 0; m &= m - 1) {
        const auto id = static_cast<ChannelId>(std::countr_zero(m));
        const Channel& ch = channels_[static_cast<std::size_t>(id)];
        if (ch.gt || !Eligible(ch)) continue;
        const int fill = SendableWords(ch);
        if (fill > best_fill) {
          best_fill = fill;
          best = id;
        }
      }
      return best;
    }
  }
  return kInvalidId;
}

ChannelId NiKernel::FirstEligibleBe(int start) const {
  const ChannelMask from =
      start < std::numeric_limits<ChannelMask>::digits
          ? enabled_ & (~ChannelMask{0} << start)
          : 0;
  for (ChannelMask m : {from, enabled_ & ~from}) {
    for (; m != 0; m &= m - 1) {
      const auto id = static_cast<ChannelId>(std::countr_zero(m));
      const Channel& ch = channels_[static_cast<std::size_t>(id)];
      if (!ch.gt && Eligible(ch)) return id;
    }
  }
  return kInvalidId;
}

void NiKernel::EmitFlit(ChannelId chid) {
  Channel& ch = ChannelAt(chid);
  Flit flit;
  flit.gt = ch.gt;
  flit.id = link::FlitId(id_, flits_emitted_++);

  if (ch.open_words_left == 0) {
    // Start a new packet: header flit. Decide the payload budget now
    // ("once a queue is selected, a packet containing the largest possible
    // amount of credits and data will be produced").
    int data = std::min(SendableWords(ch),
                        params_.max_packet_flits * kFlitWords - 1);
    int credits = std::min(ch.credits_owed, link::kMaxHeaderCredits);
    if (!params_.piggyback_credits) {
      // Ablation: credits travel only in dedicated credit packets, which
      // preempt data once the credit threshold triggers ("the credits are
      // sent as empty packets, thus consuming extra bandwidth", §4.1).
      const bool send_credits_now =
          ch.credits_owed >= std::max(1, ch.credit_threshold) ||
          (ch.credit_flush && ch.credits_owed > 0);
      if (send_credits_now) {
        data = 0;
      } else {
        credits = 0;
      }
    }
    if (ch.gt) {
      // A GT packet must fit in the contiguous run of its reserved slots so
      // that its flits occupy consecutive slots along the whole path.
      data = std::min(data, GtRunWords(chid, CurrentSlot()));
    }
    AETHEREAL_CHECK_MSG(data > 0 || credits > 0,
                        name() << ": scheduled channel " << chid
                               << " with nothing to send");
    PacketHeader header;
    header.gt = ch.gt;
    header.credits = credits;
    header.remote_qid = ch.remote_qid;
    header.path = ch.path;
    flit.kind = FlitKind::kHeader;
    flit.words[0] = header.Encode();
    flit.valid_words = 1;
    ch.credits_owed -= credits;
    ch.space -= data;
    ch.open_words_left = data;
    ++stats_.header_words_sent;
    ++ch.stats.packets_sent;
    if (ch.gt) {
      ++stats_.gt_packets;
    } else {
      ++stats_.be_packets;
    }
    if (data == 0) {
      ++stats_.credit_only_packets;
      ++ch.stats.credit_only_packets;
      stats_.credits_in_credit_only += credits;
    } else {
      stats_.credits_piggybacked += credits;
    }
  } else {
    flit.kind = FlitKind::kPayload;
  }

  // Fill the flit with payload words from the source queue.
  while (flit.valid_words < kFlitWords && ch.open_words_left > 0) {
    AETHEREAL_CHECK_MSG(ch.source.CanPop(),
                        name() << ": source queue underran an open packet");
    flit.words[static_cast<std::size_t>(flit.valid_words)] = ch.source.Pop();
    ++flit.valid_words;
    --ch.open_words_left;
    ++ch.stats.words_sent;
    ++stats_.payload_words_sent;
    if (ch.flush_words_left > 0) --ch.flush_words_left;
  }
  flit.eop = (ch.open_words_left == 0);

  if (ch.gt) {
    ++stats_.gt_flits;
  } else {
    ++stats_.be_flits;
    --be_link_credits_;
    be_open_channel_ = flit.eop ? kInvalidId : chid;
  }
  to_router_->data.Drive(flit);
}

}  // namespace aethereal::core
