// Design-time (instantiation-time) parameters of a network interface.
//
// The paper emphasizes that "the number of ports and their type, the number
// of connections at each port, memory allocated for the queues, the level
// of services per port, and the interface to the IP modules are all
// configurable at design (instantiation) time using an XML description".
// These structs are the programmatic equivalent of that XML description;
// soc/NocDescription produces them from a declarative text form.
#ifndef AETHEREAL_CORE_PARAMS_H
#define AETHEREAL_CORE_PARAMS_H

#include <string>
#include <vector>

#include "util/types.h"

namespace aethereal::core {

/// Best-effort arbitration policy of the NI kernel scheduler (paper §4.1:
/// "round-robin, weighted round-robin, or based on the queue filling").
enum class BeArbitration {
  kRoundRobin,
  kWeightedRoundRobin,
  kQueueFill,
};

const char* BeArbitrationName(BeArbitration policy);

/// One channel (point-to-point connection endpoint): a source queue toward
/// the NoC and a destination queue from the NoC (paper Fig. 2).
struct ChannelParams {
  int source_queue_words = 8;  // words; paper instance uses 8-word queues
  int dest_queue_words = 8;
  int weight = 1;              // weighted-round-robin weight
};

/// One NI port. Ports can run at their own clock frequency; the queues of
/// their channels implement the clock-domain crossing.
struct PortParams {
  std::string name;
  std::vector<ChannelParams> channels;
};

/// The kernel's own parameters, apart from its ports.
struct NiKernelSettings {
  int stu_slots = 8;          // slot-table-unit size (paper instance: 8)
  int max_packet_flits = 4;   // maximum packet length, in flits
  BeArbitration be_arbitration = BeArbitration::kRoundRobin;
  /// Piggyback credits in data-packet headers (paper §4.1). Disabling this
  /// (ablation) forces all credits into credit-only packets.
  bool piggyback_credits = true;
};

/// The NI kernel instance.
struct NiKernelParams : NiKernelSettings {
  std::vector<PortParams> ports;

  /// The paper's reference instance (§5): STU of 8 slots, 4 ports with
  /// 1, 1, 2, and 4 channels, all queues 32-bit wide and 8 words deep.
  static NiKernelParams PaperReferenceInstance();

  int TotalChannels() const;
};

}  // namespace aethereal::core

#endif  // AETHEREAL_CORE_PARAMS_H
