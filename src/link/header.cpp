#include "link/header.h"

#include "util/bits.h"
#include "util/check.h"

namespace aethereal::link {

SourcePath SourcePath::FromHops(std::span<const int> hops) {
  AETHEREAL_CHECK_MSG(static_cast<int>(hops.size()) <= kMaxPathHops,
                      "path of " << hops.size() << " hops exceeds "
                                 << kMaxPathHops);
  SourcePath path;
  // First hop in the least significant bits; 0 terminates.
  for (std::size_t i = hops.size(); i > 0; --i) {
    const int port = hops[i - 1];
    AETHEREAL_CHECK_MSG(port >= 0 && port <= kMaxPathPort,
                        "router port " << port << " not encodable in a path");
    path.packed_ = (path.packed_ << kBitsPerHop) |
                   static_cast<std::uint32_t>(port + 1);
  }
  return path;
}

SourcePath SourcePath::FromHops(std::initializer_list<int> hops) {
  return FromHops(std::span<const int>(hops.begin(), hops.size()));
}

SourcePath SourcePath::FromPacked(std::uint32_t packed) {
  AETHEREAL_CHECK((packed & ~BitMask(kPathBits)) == 0);
  SourcePath path;
  path.packed_ = packed;
  return path;
}

int SourcePath::NextHop() const {
  AETHEREAL_CHECK_MSG(!Exhausted(), "source path exhausted");
  return PackedNextHop(packed_);
}

SourcePath SourcePath::Consume() const {
  AETHEREAL_CHECK(!Exhausted());
  SourcePath rest;
  rest.packed_ = packed_ >> kBitsPerHop;
  return rest;
}

int SourcePath::HopCount() const {
  int count = 0;
  std::uint32_t p = packed_;
  while (p != 0) {
    ++count;
    p >>= kBitsPerHop;
  }
  return count;
}

std::ostream& operator<<(std::ostream& os, const SourcePath& path) {
  os << "path[";
  SourcePath p = path;
  bool first = true;
  while (!p.Exhausted()) {
    if (!first) os << ",";
    os << p.NextHop();
    p = p.Consume();
    first = false;
  }
  return os << "]";
}

Word PacketHeader::Encode() const {
  AETHEREAL_CHECK_MSG(credits >= 0 && credits <= kMaxHeaderCredits,
                      "credits " << credits << " out of header range");
  AETHEREAL_CHECK_MSG(remote_qid >= 0 && remote_qid <= kMaxQueueId,
                      "remote qid " << remote_qid << " out of header range");
  Word word = 0;
  word = DepositBits(word, 0, kPathBits, path.packed());
  word = DepositBits(word, kQidLsb, kQidBits,
                     static_cast<std::uint32_t>(remote_qid));
  word = DepositBits(word, kCreditsLsb, kCreditsBits,
                     static_cast<std::uint32_t>(credits));
  word = DepositBits(word, kGtBit, 1, gt ? 1u : 0u);
  return word;
}

PacketHeader PacketHeader::Decode(Word word) {
  PacketHeader header;
  header.path = SourcePath::FromPacked(HeaderPath(word));
  header.remote_qid = static_cast<int>(ExtractBits(word, kQidLsb, kQidBits));
  header.credits = static_cast<int>(ExtractBits(word, kCreditsLsb, kCreditsBits));
  header.gt = ExtractBits(word, kGtBit, 1) != 0;
  return header;
}

std::ostream& operator<<(std::ostream& os, const PacketHeader& header) {
  return os << (header.gt ? "GT" : "BE") << " hdr{credits=" << header.credits
            << ", qid=" << header.remote_qid << ", " << header.path << "}";
}

}  // namespace aethereal::link
