// Physical address to DRAM coordinate mapping.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "dram/timings.h"

namespace secddr::dram {

/// A decoded DRAM coordinate.
struct DecodedAddr {
  unsigned rank = 0;
  unsigned bank_group = 0;
  unsigned bank = 0;  ///< bank within its group
  std::uint64_t row = 0;
  unsigned column = 0;  ///< cache-line column within the row

  /// Flat bank id within the channel: rank * banks_per_rank + bg * bpg + bank.
  unsigned flat_bank(const Geometry& g) const {
    return rank * g.banks_per_rank() + bank_group * g.banks_per_group + bank;
  }

  friend bool operator==(const DecodedAddr& a, const DecodedAddr& b) {
    return a.rank == b.rank && a.bank_group == b.bank_group &&
           a.bank == b.bank && a.row == b.row && a.column == b.column;
  }
};

/// Extracts the channel-select bits from a global physical address and
/// converts between the global address space and each channel's dense
/// local address space (channel bits removed). Controllers, metadata
/// layouts, and security engines all operate on local addresses, so a
/// single-channel system (`channels == 1`) sees the identity mapping.
class ChannelSelector {
 public:
  /// Throws std::invalid_argument unless `channels` and
  /// `columns_per_row` are powers of two.
  explicit ChannelSelector(const Geometry& geometry);

  unsigned channels() const { return channels_; }
  /// Bit position of the lowest channel-select bit.
  unsigned shift() const { return shift_; }

  /// Channel owning `byte_addr`.
  unsigned channel_of(Addr byte_addr) const {
    return static_cast<unsigned>((byte_addr >> shift_) & (channels_ - 1));
  }
  /// Strips the channel bits: the dense channel-local address.
  Addr to_local(Addr byte_addr) const {
    const Addr low = byte_addr & ((Addr{1} << shift_) - 1);
    const Addr high = byte_addr >> (shift_ + ch_bits_);
    return (high << shift_) | low;
  }
  /// Inverse of to_local: re-inserts the channel bits.
  Addr to_global(unsigned channel, Addr local) const {
    const Addr low = local & ((Addr{1} << shift_) - 1);
    const Addr high = local >> shift_;
    return (((high << ch_bits_) | channel) << shift_) | low;
  }

 private:
  unsigned channels_, ch_bits_, shift_;
};

/// Row-interleaved mapping (low bits -> column, then bank group, bank, rank,
/// row) with optional XOR-based bank permutation that spreads row-conflict
/// streams across banks. Operates on channel-local addresses (the
/// ChannelSelector removes the channel bits first).
class AddressMapping {
 public:
  /// Throws std::invalid_argument unless every per-channel dimension
  /// (ranks, bank groups, banks, rows, columns) is a power of two.
  explicit AddressMapping(const Geometry& geometry, bool xor_banks = true);

  DecodedAddr decode(Addr byte_addr) const;
  /// Inverse of decode (line-aligned address).
  Addr encode(const DecodedAddr& d) const;

  const Geometry& geometry() const { return geometry_; }

 private:
  Geometry geometry_;
  bool xor_banks_;
  unsigned col_bits_, bg_bits_, bank_bits_, rank_bits_;
};

}  // namespace secddr::dram
