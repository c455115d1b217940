// Memory-mapped register file layout of the network interface (CNIP view).
//
// "NIs are configured via a configuration port (CNIP), which offers a
// memory-mapped view on all control registers in the NIs. This means that
// the registers in the NI are readable and writable by any master using
// normal read and write transactions." (paper §4.3)
//
// Word-address map (each NI has its own space, selected by the route):
//   0x0      STU_SIZE      (RO) slot table size
//   0x1      NUM_CHANNELS  (RO)
//   0x2      NUM_PORTS     (RO)
//   0x10 + ch*8 + reg      per-channel registers:
//     +0 CTRL       bit0 = enable, bit1 = GT (0 = best effort)
//     +1 SPACE      remote destination-queue capacity in words (writing
//                   initializes the Space credit counter; reads return the
//                   current counter, which is useful for diagnosis)
//     +2 PATH_RQID  [20:0] source path, [25:21] remote queue id (this is
//                   the same packing as the packet-header routing fields)
//     +3 THRESHOLDS [7:0] data (send) threshold in words,
//                   [15:8] credit threshold in words
//     +4 SLOTS      bitmask of STU slots reserved for this channel
//                   (requires stu_slots <= 32)
//
// The "5 registers written at the master and 3 at the slave network
// interfaces" of paper §3 correspond to {CTRL, SPACE, PATH_RQID,
// THRESHOLDS, SLOTS} on the side that initiates GT traffic and {CTRL,
// SPACE, PATH_RQID} on a best-effort response side.
#ifndef AETHEREAL_CORE_REGISTERS_H
#define AETHEREAL_CORE_REGISTERS_H

#include "link/header.h"
#include "util/bits.h"
#include "util/types.h"

namespace aethereal::core::regs {

// NI-level read-only registers.
inline constexpr Word kStuSize = 0x0;
inline constexpr Word kNumChannels = 0x1;
inline constexpr Word kNumPorts = 0x2;

// Per-channel register block.
inline constexpr Word kChannelBase = 0x10;
inline constexpr Word kRegsPerChannel = 8;

/// Largest slot-table size the SLOTS register can express (one bit per
/// slot in a 32-bit mask). The NI kernel, the scenario parser, and the
/// sweep parser all enforce this same limit.
inline constexpr int kMaxStuSlots = 32;

enum class ChannelReg : Word {
  kCtrl = 0,
  kSpace = 1,
  kPathRqid = 2,
  kThresholds = 3,
  kSlots = 4,
};

inline constexpr Word kCtrlEnable = 1u << 0;
inline constexpr Word kCtrlGt = 1u << 1;

/// Word address of channel `ch` register `reg`.
constexpr Word ChannelRegAddr(ChannelId ch, ChannelReg reg) {
  return kChannelBase + static_cast<Word>(ch) * kRegsPerChannel +
         static_cast<Word>(reg);
}

/// PATH_RQID packing (shared layout with the packet header fields).
inline Word PackPathRqid(const link::SourcePath& path, int remote_qid) {
  Word word = 0;
  word = DepositBits(word, 0, 21, path.packed());
  word = DepositBits(word, 21, 5, static_cast<std::uint32_t>(remote_qid));
  return word;
}
inline link::SourcePath UnpackPath(Word word) {
  return link::SourcePath::FromPacked(ExtractBits(word, 0, 21));
}
inline int UnpackRqid(Word word) {
  return static_cast<int>(ExtractBits(word, 21, 5));
}

/// THRESHOLDS packing: 8 bits per threshold.
inline constexpr int kMaxThreshold = 255;
inline Word PackThresholds(int data_threshold, int credit_threshold) {
  Word word = 0;
  word = DepositBits(word, 0, 8, static_cast<std::uint32_t>(data_threshold));
  word = DepositBits(word, 8, 8, static_cast<std::uint32_t>(credit_threshold));
  return word;
}
inline int UnpackDataThreshold(Word word) {
  return static_cast<int>(ExtractBits(word, 0, 8));
}
inline int UnpackCreditThreshold(Word word) {
  return static_cast<int>(ExtractBits(word, 8, 8));
}

}  // namespace aethereal::core::regs

#endif  // AETHEREAL_CORE_REGISTERS_H
