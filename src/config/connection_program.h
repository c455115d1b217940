// The register program of one connection (paper §3, §4.3, Fig. 9).
//
// A connection pairs the master's request channel (master -> slave) with
// the slave's response channel (slave -> master). Opening it resolves both
// routes, reserves each GT direction's TDM slots in the centralized
// allocator, and writes each endpoint channel's registers; closing it
// disables both channels, clears the SLOTS register of each GT endpoint
// and frees the slots.
//
// The program is the same however the writes travel: Soc::OpenConnection
// applies them straight to the NI kernels, the ConnectionManager sends
// them over the NoC through the configuration shell. The one deliberate
// difference is the manager's Fig. 9 step 3, which writes the response
// channel without its THRESHOLDS register (`full_set` below).
#ifndef AETHEREAL_CONFIG_CONNECTION_PROGRAM_H
#define AETHEREAL_CONFIG_CONNECTION_PROGRAM_H

#include <vector>

#include "core/registers.h"
#include "link/header.h"
#include "tdm/allocator.h"
#include "topology/topology.h"
#include "util/status.h"

namespace aethereal::config {

/// Quality of service of one channel direction.
struct ChannelQos {
  bool gt = false;
  int gt_slots = 0;  // reserved TDM slots (gt only)
  tdm::AllocPolicy policy = tdm::AllocPolicy::kSpread;
  int data_threshold = 1;
  int credit_threshold = 1;
};

/// A connection between one master channel and one slave channel.
struct ConnectionSpec {
  tdm::GlobalChannel master;
  tdm::GlobalChannel slave;
  ChannelQos request;   // master -> slave direction
  ChannelQos response;  // slave -> master direction
};

/// An opened connection: its spec, the route of each direction and the
/// injection-link slots each GT direction holds.
struct Connection {
  ConnectionSpec spec;
  topology::ChannelRoute request_route;   // master -> slave
  topology::ChannelRoute response_route;  // slave -> master
  tdm::SlotList request_slots;
  tdm::SlotList response_slots;
};

/// Resolves both routes and reserves the slots of each GT direction, the
/// request direction first. If the response direction cannot be reserved,
/// the request direction's slots are freed again before the error returns.
Result<Connection> ReserveConnection(const ConnectionSpec& spec,
                                     const topology::Topology& topology,
                                     tdm::CentralizedAllocator& allocator);

/// Frees the slots both directions hold and clears the slot lists.
void ReleaseConnection(Connection& connection,
                       tdm::CentralizedAllocator& allocator);

/// Selects an endpoint channel of a connection by the direction it sends
/// in: the master's channel for kRequest, the slave's for kResponse.
enum class Direction { kRequest, kResponse };

/// Calls `write(ni, address, value)` for each register write that opens
/// the channel sending in `direction`, in order: SPACE (`remote_space`,
/// the peer's destination-queue words), PATH_RQID, THRESHOLDS, SLOTS and
/// CTRL. Without `full_set` (the response channel of Fig. 9 step 3)
/// THRESHOLDS is skipped, and SLOTS is written at a GT channel only.
template <typename Write>
void EmitOpenWrites(const Connection& connection, Direction direction,
                    int remote_space, bool full_set, Write&& write) {
  namespace regs = core::regs;
  const bool request = direction == Direction::kRequest;
  const ConnectionSpec& spec = connection.spec;
  const tdm::GlobalChannel& at = request ? spec.master : spec.slave;
  const ChannelQos& qos = request ? spec.request : spec.response;
  const auto emit = [&](regs::ChannelReg reg, Word value) {
    write(at.ni, regs::ChannelRegAddr(at.channel, reg), value);
  };
  const topology::ChannelRoute& route =
      request ? connection.request_route : connection.response_route;
  Word mask = 0;
  for (SlotIndex s :
       request ? connection.request_slots : connection.response_slots) {
    mask |= 1u << s;
  }
  emit(regs::ChannelReg::kSpace, static_cast<Word>(remote_space));
  emit(regs::ChannelReg::kPathRqid,
       regs::PackPathRqid(link::SourcePath::FromHops(route.hops),
                          request ? spec.slave.channel : spec.master.channel));
  if (full_set) {
    emit(regs::ChannelReg::kThresholds,
         regs::PackThresholds(qos.data_threshold, qos.credit_threshold));
  }
  if (full_set || qos.gt) emit(regs::ChannelReg::kSlots, mask);
  emit(regs::ChannelReg::kCtrl,
       regs::kCtrlEnable | (qos.gt ? regs::kCtrlGt : 0));
}

/// Calls `write(ni, address, value)` for each register write that closes
/// the channel sending in `direction`: CTRL 0, then, at a channel holding
/// slots, SLOTS 0. Clearing SLOTS releases the STU's slot ownership,
/// without which a later open could never re-program those slots for
/// another channel of the same NI.
template <typename Write>
void EmitCloseWrites(const Connection& connection, Direction direction,
                     Write&& write) {
  namespace regs = core::regs;
  const bool request = direction == Direction::kRequest;
  const tdm::GlobalChannel& at =
      request ? connection.spec.master : connection.spec.slave;
  write(at.ni, regs::ChannelRegAddr(at.channel, regs::ChannelReg::kCtrl), 0);
  if (!(request ? connection.request_slots : connection.response_slots)
           .empty()) {
    write(at.ni, regs::ChannelRegAddr(at.channel, regs::ChannelReg::kSlots),
          0);
  }
}

}  // namespace aethereal::config

#endif  // AETHEREAL_CONFIG_CONNECTION_PROGRAM_H
