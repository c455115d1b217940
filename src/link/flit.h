// Flit (flow-control unit) carried on NoC links.
//
// The Æthereal prototype uses 3-word flits on a 32-bit link: one flit is
// transported per TDM slot (3 word-clock cycles at 500 MHz). A packet is a
// header word followed by payload words, padded to a flit boundary (this
// padding is the 1..3-cycle alignment latency reported in paper §5).
// Sideband bits mark the header flit and the end of packet, as in the
// Æthereal link protocol.
//
// Two more fields are simulation-only metadata that travel with the flit
// but are not part of it: `id`, the identity the emitting NI stamps, and
// `fault_flipped`, set by the fault injector when it flips a payload bit.
// No model module (router, NI receive path, shells, IPs) reads them, they
// take no part in operator== or operator<<, and they cost the hardware
// nothing. Only the verification monitor reads them, to match each
// delivered flit with the one that entered the network and to tell an
// injected bit flip from a model bug (DESIGN.md §12.3).
#ifndef AETHEREAL_LINK_FLIT_H
#define AETHEREAL_LINK_FLIT_H

#include <array>
#include <cstdint>
#include <ostream>

#include "util/types.h"

namespace aethereal::link {

/// Bits of a flit identity that count the emitting NI's flits.
inline constexpr int kFlitIdSeqBits = 40;

/// The identity NI `ni` stamps on the `seq`-th flit it emits.
inline std::uint64_t FlitId(NiId ni, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(ni) << kFlitIdSeqBits) | seq;
}

enum class FlitKind {
  kIdle = 0,   // nothing on the link this slot
  kHeader,     // first flit of a packet; words[0] is the packet header
  kPayload,    // continuation flit
};

struct Flit {
  FlitKind kind = FlitKind::kIdle;
  bool gt = false;      // guaranteed-throughput traffic class (sideband)
  bool eop = false;     // last flit of its packet (sideband)
  bool fault_flipped = false;  // a fault flipped a payload bit (sim-only)
  int valid_words = 0;  // 0..kFlitWords
  std::array<Word, kFlitWords> words{};
  /// Simulation-only identity: the emitting NI's id in the bits from
  /// kFlitIdSeqBits up, that NI's count of emitted flits below (FlitId()).
  /// Unique among the flits of a run.
  std::uint64_t id = 0;

  bool IsIdle() const { return kind == FlitKind::kIdle; }

  static Flit Idle() { return Flit{}; }

  friend bool operator==(const Flit& a, const Flit& b) {
    if (a.kind != b.kind || a.gt != b.gt || a.eop != b.eop ||
        a.valid_words != b.valid_words)
      return false;
    for (int i = 0; i < a.valid_words; ++i) {
      if (a.words[static_cast<std::size_t>(i)] !=
          b.words[static_cast<std::size_t>(i)])
        return false;
    }
    return true;
  }
};

// The sideband must not make the flit, which every wire entry and router
// buffer slot holds, wider than four 8-byte words.
static_assert(sizeof(Flit) <= 32);

std::ostream& operator<<(std::ostream& os, const Flit& flit);

}  // namespace aethereal::link

#endif  // AETHEREAL_LINK_FLIT_H
