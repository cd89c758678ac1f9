#include "relation/coded_relation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/prof.h"

namespace ocdd::rel {

namespace {

/// Open-addressing (linear probing) index from keys to dense first-seen
/// ids: the dedupe half of EncodeColumn.
template <typename Key, typename Hash>
class DistinctIndex {
 public:
  /// The id of `key`, inserting it as the next id when new.
  std::uint32_t Insert(Key key) {
    if (2 * (keys_.size() + 1) > slots_.size()) Grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      const std::uint32_t slot = slots_[i];
      if (slot == 0) {
        slots_[i] = static_cast<std::uint32_t>(keys_.size() + 1);
        keys_.push_back(key);
        return slots_[i] - 1;
      }
      if (keys_[slot - 1] == key) return slot - 1;
    }
  }

  /// Distinct keys, indexed by id.
  const std::vector<Key>& keys() const { return keys_; }

 private:
  void Grow() {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < keys_.size(); ++id) {
      std::size_t i = Hash{}(keys_[id]) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<std::uint32_t>(id + 1);
    }
  }

  std::vector<Key> keys_;
  /// Each slot holds id + 1 of the key hashed there; 0 marks it empty.
  std::vector<std::uint32_t> slots_;
};

/// murmur3's 64-bit finalizer: spreads keys whose low bits are all equal
/// (the images of round doubles) over the whole table.
struct MixHash {
  std::size_t operator()(std::uint64_t k) const {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return static_cast<std::size_t>(k);
  }
};

constexpr std::uint64_t kSignBit = 1ULL << 63;

/// Order-preserving image of an int64 as a uint64.
std::uint64_t OrderedBits(std::int64_t v) {
  return static_cast<std::uint64_t>(v) ^ kSignBit;
}

/// Order-preserving image of a double as a uint64. -0.0 maps to 0.0's image
/// (they compare equal), and every NaN to one class above +inf.
std::uint64_t OrderedBits(double v) {
  if (v == 0.0) v = 0.0;
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

/// Writes the dense ranks of `key_at(row)` over the non-NULL rows of
/// `column` into `out->codes`, NULLs first as code 0: hash-dedupe the
/// values, sort only the distinct ones, then map each row's id to its rank.
template <typename Key, typename Hash, typename KeyAt>
void EncodeDistinct(const Column& column, KeyAt key_at, CodedColumn* out) {
  const std::size_t m = column.size();
  DistinctIndex<Key, Hash> index;
  out->codes.resize(m);
  for (std::size_t r = 0; r < m; ++r) {
    if (column.is_null(r)) {
      out->has_nulls = true;
      out->codes[r] = -1;
    } else {
      out->codes[r] = static_cast<std::int32_t>(index.Insert(key_at(r)));
    }
  }
  const std::vector<Key>& keys = index.keys();
  std::vector<std::pair<Key, std::uint32_t>> sorted(keys.size());
  for (std::uint32_t id = 0; id < keys.size(); ++id) {
    sorted[id] = {keys[id], id};
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::int32_t base = out->has_nulls ? 1 : 0;
  std::vector<std::int32_t> rank(keys.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    rank[sorted[i].second] = base + static_cast<std::int32_t>(i);
  }
  for (std::int32_t& code : out->codes) code = code < 0 ? 0 : rank[code];
  out->num_distinct = base + static_cast<std::int32_t>(keys.size());
}

CodedColumn EncodeColumn(const Relation& relation, ColumnId col,
                         const EncodeOptions& options) {
  const Column& column = relation.column(col);
  using StringKeys = std::hash<std::string_view>;

  CodedColumn out;
  out.name = relation.schema().attribute(col).name;
  out.source_type = column.type();

  if (options.force_lexicographic && column.type() != DataType::kString) {
    // Rank by rendered string; NULLs still first and mutually equal. A
    // string cell renders as itself, so string columns skip the copy.
    std::vector<std::string> rendered(column.size());
    for (std::size_t r = 0; r < rendered.size(); ++r) {
      if (!column.is_null(r)) rendered[r] = column.ValueAt(r).ToString();
    }
    EncodeDistinct<std::string_view, StringKeys>(
        column, [&](std::size_t r) { return std::string_view(rendered[r]); },
        &out);
    return out;
  }
  switch (column.type()) {
    case DataType::kInt:
      EncodeDistinct<std::uint64_t, MixHash>(
          column, [&](std::size_t r) { return OrderedBits(column.int_at(r)); },
          &out);
      break;
    case DataType::kDouble:
      EncodeDistinct<std::uint64_t, MixHash>(
          column,
          [&](std::size_t r) { return OrderedBits(column.double_at(r)); },
          &out);
      break;
    case DataType::kString:
      EncodeDistinct<std::string_view, StringKeys>(
          column,
          [&](std::size_t r) { return std::string_view(column.string_at(r)); },
          &out);
      break;
  }
  return out;
}

}  // namespace

void CodedColumn::SyncCompressedForms(bool bit_pack) {
  codes8.clear();
  codes16.clear();
  packed.clear();
  bits_per_code = 0;
  std::size_t m = codes.size();
  if (m > 0) {
    if (num_distinct <= 256) {
      codes8.resize(m);
      for (std::size_t r = 0; r < m; ++r) {
        codes8[r] = static_cast<std::uint8_t>(codes[r]);
      }
    } else if (num_distinct <= 65536) {
      codes16.resize(m);
      for (std::size_t r = 0; r < m; ++r) {
        codes16[r] = static_cast<std::uint16_t>(codes[r]);
      }
    }
  }
  if (bit_pack && m > 0) {
    std::uint32_t max_code =
        num_distinct > 0 ? static_cast<std::uint32_t>(num_distinct - 1) : 0;
    std::uint8_t bits = 1;
    while ((max_code >> bits) != 0) ++bits;
    bits_per_code = bits;
    packed.assign((m * bits + 63) / 64, 0);
    for (std::size_t r = 0; r < m; ++r) {
      std::uint64_t v = static_cast<std::uint32_t>(codes[r]);
      std::size_t bit = r * bits;
      std::size_t word = bit / 64;
      std::size_t off = bit % 64;
      packed[word] |= v << off;
      if (off + bits > 64) packed[word + 1] |= v >> (64 - off);
    }
  }
}

std::int32_t CodedColumn::PackedCodeAt(std::size_t row) const {
  assert(bits_per_code > 0);
  std::uint8_t bits = bits_per_code;
  std::size_t bit = row * bits;
  std::size_t word = bit / 64;
  std::size_t off = bit % 64;
  std::uint64_t v = packed[word] >> off;
  if (off + bits > 64) v |= packed[word + 1] << (64 - off);
  std::uint64_t mask = bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
  return static_cast<std::int32_t>(v & mask);
}

void CodedColumn::UnpackInto(std::vector<std::int32_t>* out) const {
  assert(bits_per_code > 0);
  out->resize(codes.size());
  for (std::size_t r = 0; r < codes.size(); ++r) {
    (*out)[r] = PackedCodeAt(r);
  }
}

CodeView NarrowView(const CodedColumn& column) {
  if (!column.codes8.empty()) {
    return CodeView{column.codes8.data(), CodeWidth::k8};
  }
  if (!column.codes16.empty()) {
    return CodeView{column.codes16.data(), CodeWidth::k16};
  }
  return CodeView{column.codes.data(), CodeWidth::k32};
}

CodedRelation CodedRelation::Encode(const Relation& relation,
                                    const EncodeOptions& options) {
  prof::ScopedTimer timer(prof::Phase::kEncode);
  CodedRelation out;
  out.num_rows_ = relation.num_rows();
  out.columns_.reserve(relation.num_columns());
  for (ColumnId c = 0; c < relation.num_columns(); ++c) {
    out.columns_.push_back(EncodeColumn(relation, c, options));
    out.columns_.back().SyncCompressedForms(options.bit_pack);
  }
  return out;
}

CodedRelation CodedRelation::FromColumns(std::vector<CodedColumn> columns) {
  CodedRelation out;
  out.num_rows_ = columns.empty() ? 0 : columns[0].codes.size();
  for (CodedColumn& c : columns) {
    assert(c.codes.size() == out.num_rows_);
    c.SyncCompressedForms(c.bits_per_code > 0);
  }
  out.columns_ = std::move(columns);
  return out;
}

double CodedRelation::ColumnEntropy(ColumnId col) const {
  const CodedColumn& c = columns_[col];
  if (num_rows_ == 0) return 0.0;
  std::unordered_map<std::int32_t, std::size_t> counts;
  counts.reserve(static_cast<std::size_t>(c.num_distinct) * 2);
  for (std::int32_t code : c.codes) ++counts[code];
  double h = 0.0;
  double m = static_cast<double>(num_rows_);
  for (const auto& [code, n] : counts) {
    double p = static_cast<double>(n) / m;
    h -= p * std::log(p);
  }
  return h;
}

CodedRelation CodedRelation::ProjectColumns(
    const std::vector<ColumnId>& cols) const {
  CodedRelation out;
  out.num_rows_ = num_rows_;
  out.columns_.reserve(cols.size());
  for (ColumnId c : cols) {
    assert(c < columns_.size());
    out.columns_.push_back(columns_[c]);
  }
  return out;
}

std::uint64_t CodedRelation::Fingerprint() const {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= kPrime;
    }
  };
  mix(num_rows_);
  mix(columns_.size());
  for (const CodedColumn& c : columns_) {
    mix(c.name.size());
    for (char ch : c.name) mix(static_cast<unsigned char>(ch));
    mix(static_cast<std::uint64_t>(c.num_distinct));
    mix(c.has_nulls ? 1 : 0);
    for (std::int32_t code : c.codes) {
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(code)));
    }
  }
  return h;
}

CodedRelation CodedRelation::HeadRows(std::size_t n) const {
  if (n >= num_rows_) return *this;
  CodedRelation out;
  out.num_rows_ = n;
  out.columns_.reserve(columns_.size());
  for (const CodedColumn& c : columns_) {
    CodedColumn trimmed = c;
    trimmed.codes.resize(n);
    // Re-densify: consumers (ListPartition, StrippedPartition) rely on the
    // invariant that codes are dense ranks in [0, num_distinct). Remapping
    // sorted-unique old codes to their index preserves the relative order.
    std::vector<std::int32_t> sorted(trimmed.codes);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (std::int32_t& code : trimmed.codes) {
      code = static_cast<std::int32_t>(
          std::lower_bound(sorted.begin(), sorted.end(), code) -
          sorted.begin());
    }
    trimmed.num_distinct = static_cast<std::int32_t>(sorted.size());
    trimmed.SyncCompressedForms(c.bits_per_code > 0);
    out.columns_.push_back(std::move(trimmed));
  }
  return out;
}

}  // namespace ocdd::rel
