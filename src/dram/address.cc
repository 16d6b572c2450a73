#include "dram/address.h"

#include <stdexcept>

#include "common/bitops.h"

namespace secddr::dram {

ChannelSelector::ChannelSelector(const Geometry& geometry)
    : channels_(geometry.channels) {
  if (!is_pow2(channels_) || !is_pow2(geometry.columns_per_row))
    throw std::invalid_argument(
        "ChannelSelector: channels and columns_per_row must be powers of two");
  ch_bits_ = ilog2(channels_);
  shift_ = kLineBits;
  if (geometry.channel_interleave == ChannelInterleave::kRow)
    shift_ += ilog2(geometry.columns_per_row);
}

AddressMapping::AddressMapping(const Geometry& geometry, bool xor_banks)
    : geometry_(geometry), xor_banks_(xor_banks) {
  if (!is_pow2(geometry.columns_per_row) || !is_pow2(geometry.bank_groups) ||
      !is_pow2(geometry.banks_per_group) || !is_pow2(geometry.ranks) ||
      !is_pow2(geometry.rows_per_bank))
    throw std::invalid_argument(
        "AddressMapping: every geometry dimension must be a power of two");
  col_bits_ = ilog2(geometry.columns_per_row);
  bg_bits_ = ilog2(geometry.bank_groups);
  bank_bits_ = ilog2(geometry.banks_per_group);
  rank_bits_ = ilog2(geometry.ranks);
}

DecodedAddr AddressMapping::decode(Addr byte_addr) const {
  std::uint64_t v = line_index(byte_addr);
  DecodedAddr d;
  d.column = static_cast<unsigned>(bits(v, 0, col_bits_));
  unsigned pos = col_bits_;
  d.bank_group = static_cast<unsigned>(bits(v, pos, bg_bits_));
  pos += bg_bits_;
  d.bank = static_cast<unsigned>(bits(v, pos, bank_bits_));
  pos += bank_bits_;
  d.rank = static_cast<unsigned>(bits(v, pos, rank_bits_));
  pos += rank_bits_;
  d.row = bits(v, pos, 64 - pos) % geometry_.rows_per_bank;
  if (xor_banks_) {
    // Permute banks with low row bits so same-bank row streams spread out.
    d.bank_group =
        static_cast<unsigned>((d.bank_group ^ d.row) & (geometry_.bank_groups - 1));
    d.bank = static_cast<unsigned>((d.bank ^ (d.row >> bg_bits_)) &
                                   (geometry_.banks_per_group - 1));
  }
  return d;
}

Addr AddressMapping::encode(const DecodedAddr& d) const {
  unsigned bg = d.bank_group;
  unsigned bank = d.bank;
  if (xor_banks_) {
    bg = static_cast<unsigned>((bg ^ d.row) & (geometry_.bank_groups - 1));
    bank = static_cast<unsigned>((bank ^ (d.row >> bg_bits_)) &
                                 (geometry_.banks_per_group - 1));
  }
  std::uint64_t v = d.row;
  v = (v << rank_bits_) | d.rank;
  v = (v << bank_bits_) | bank;
  v = (v << bg_bits_) | bg;
  v = (v << col_bits_) | d.column;
  return v << kLineBits;
}

}  // namespace secddr::dram
