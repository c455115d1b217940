// Packet header codec.
//
// Per paper §4.1: "A packet header consists of the routing information (NI
// address for destination routing, and path for source routing), remote
// queue id (i.e., the queue of the remote NI in which the data will be
// stored), and piggybacked credits." The Æthereal prototype uses source
// routing (the configuration protocol of Fig. 9 writes `path` registers),
// which is what we implement.
//
// 32-bit header word layout:
//   [31]     gt      — 1 = guaranteed-throughput packet, 0 = best-effort
//   [30:26]  credits — piggybacked end-to-end flow-control credits (0..31;
//                      "the amount of credits is bound by implementation to
//                      the given number of bits in the packet header")
//   [25:21]  qid     — remote (destination) queue id, up to 32 channels/NI
//   [20:0]   path    — source route, 7 hops x 3 bits, each hop stores
//                      (output port + 1); 0 terminates the path
#ifndef AETHEREAL_LINK_HEADER_H
#define AETHEREAL_LINK_HEADER_H

#include <initializer_list>
#include <ostream>
#include <span>

#include "util/bits.h"
#include "util/types.h"

namespace aethereal::link {

/// Header word layout (see the file comment): bit positions and widths.
inline constexpr int kPathBits = 21;
inline constexpr int kBitsPerHop = 3;
inline constexpr int kQidLsb = 21;
inline constexpr int kQidBits = 5;
inline constexpr int kCreditsLsb = 26;
inline constexpr int kCreditsBits = 5;
inline constexpr int kGtBit = 31;

/// The packed source route in a header word.
constexpr std::uint32_t HeaderPath(Word word) {
  return ExtractBits(word, 0, kPathBits);
}

/// The header word after the current router takes its hop: the path field
/// shifted down by one hop in place, every other field unchanged. For a
/// nonempty path this equals Decode, `path.Consume()`, Encode.
constexpr Word ConsumeHeaderHop(Word word) {
  return (word & ~BitMask(kPathBits)) | (HeaderPath(word) >> kBitsPerHop);
}

/// Maximum piggybacked credits per packet header (5-bit field).
inline constexpr int kMaxHeaderCredits = 31;

/// Maximum channels (queue pairs) addressable in one NI (5-bit qid field).
inline constexpr int kMaxQueueId = 31;

/// Maximum hops representable in a source route (21-bit field, 3 bits/hop).
inline constexpr int kMaxPathHops = 7;

/// Maximum router output port encodable in a path hop (values 0..6; the
/// encoding stores port+1 so that 0 can terminate the path).
inline constexpr int kMaxPathPort = 6;

/// A source route: the output port to take at each successive router.
class SourcePath {
 public:
  SourcePath() = default;

  /// Builds a path from a hop list (output port at each router). Checks the
  /// hop count and port ranges.
  static SourcePath FromHops(std::span<const int> hops);
  static SourcePath FromHops(std::initializer_list<int> hops);

  /// Reconstructs a path from its 21-bit packed representation.
  static SourcePath FromPacked(std::uint32_t packed);

  /// Output port at the current (next) router; path must not be exhausted.
  int NextHop() const;

  /// NextHop() of a packed path, without the exhaustion check: -1 when the
  /// current hop's field is 0.
  static constexpr int PackedNextHop(std::uint32_t packed) {
    return static_cast<int>(packed & BitMask(kBitsPerHop)) - 1;
  }

  /// True when all hops have been consumed.
  bool Exhausted() const { return packed_ == 0; }

  /// Path remaining after the current hop is taken.
  SourcePath Consume() const;

  /// Number of hops remaining.
  int HopCount() const;

  std::uint32_t packed() const { return packed_; }

  friend bool operator==(const SourcePath& a, const SourcePath& b) {
    return a.packed_ == b.packed_;
  }

 private:
  std::uint32_t packed_ = 0;
};

std::ostream& operator<<(std::ostream& os, const SourcePath& path);

/// Decoded packet header.
struct PacketHeader {
  bool gt = false;     // guaranteed-throughput (vs best-effort)
  int credits = 0;     // piggybacked credits, 0..kMaxHeaderCredits
  int remote_qid = 0;  // destination queue id, 0..kMaxQueueId
  SourcePath path;

  /// Packs into the 32-bit header word (checks field ranges).
  Word Encode() const;

  /// Unpacks from a 32-bit header word.
  static PacketHeader Decode(Word word);

  friend bool operator==(const PacketHeader& a, const PacketHeader& b) {
    return a.gt == b.gt && a.credits == b.credits &&
           a.remote_qid == b.remote_qid && a.path == b.path;
  }
};

std::ostream& operator<<(std::ostream& os, const PacketHeader& header);

}  // namespace aethereal::link

#endif  // AETHEREAL_LINK_HEADER_H
