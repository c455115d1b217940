// Common scalar types used across the Æthereal model.
#ifndef AETHEREAL_UTIL_TYPES_H
#define AETHEREAL_UTIL_TYPES_H

#include <cstdint>

namespace aethereal {

/// A 32-bit data word; the Æthereal prototype datapath is 32 bits wide.
using Word = std::uint32_t;

/// Simulation time in integer picoseconds (1 ns = 1000 ps).
using Picoseconds = std::int64_t;

/// A count of clock edges observed in one clock domain.
using Cycle = std::int64_t;

/// Largest cycle count a spec may name (warmup, durations, drain,
/// convergence windows, fault windows and delays): ~12 days of 1 GHz
/// simulation, and far from Cycle overflow when summed.
inline constexpr Cycle kMaxCycles = Cycle{1} << 40;

/// Identifies a network interface instance within a NoC.
using NiId = std::int32_t;

/// Identifies a router instance within a NoC.
using RouterId = std::int32_t;

/// Identifies a channel (unidirectional point-to-point queue pair) in an NI.
using ChannelId = std::int32_t;

/// Identifies a port on an NI (the IP-facing side).
using PortId = std::int32_t;

/// Identifies a connection (a set of channels between a master and slaves).
using ConnectionId = std::int32_t;

/// A TDM slot index in the slot table.
using SlotIndex = std::int32_t;

/// Sentinel for "no id".
inline constexpr std::int32_t kInvalidId = -1;

/// Number of 32-bit words in one flit (the Æthereal prototype uses 3-word
/// flits; the NI kernel aligns packets to this boundary, costing 1..3 cycles
/// of latency per the paper's Section 5).
inline constexpr int kFlitWords = 3;

}  // namespace aethereal

#endif  // AETHEREAL_UTIL_TYPES_H
