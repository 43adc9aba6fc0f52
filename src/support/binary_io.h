// Bounds-checked binary encoding for the persisted program cache.
//
// The on-disk format of compiled programs must reproduce doubles bit-for-bit
// (the warm-start contract is a bit-identical ExecutionReport), so values
// are stored as fixed-width little-endian raw bytes — no text round-trip.
// ByteReader is written for hostile input: every read is bounds-checked and
// returns Status instead of crashing, and length prefixes are validated
// against the bytes actually remaining before any allocation, so a mutated
// blob cannot request a gigantic vector.
#ifndef SPACEFUSION_SRC_SUPPORT_BINARY_IO_H_
#define SPACEFUSION_SRC_SUPPORT_BINARY_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace spacefusion {

class ByteWriter {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void F64(double v);
  void F32(float v);
  void Str(const std::string& s);
  void I64Vec(const std::vector<std::int64_t>& v);
  void I32Vec(const std::vector<std::int32_t>& v);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  // Non-owning view; `data` must outlive the reader.
  explicit ByteReader(const std::string& data) : data_(&data) {}

  Status U8(std::uint8_t* v);
  Status Bool(bool* v);
  Status U32(std::uint32_t* v);
  Status U64(std::uint64_t* v);
  Status I64(std::int64_t* v);
  Status I32(std::int32_t* v);
  Status F64(double* v);
  Status F32(float* v);
  Status Str(std::string* s);
  Status I64Vec(std::vector<std::int64_t>* v);
  Status I32Vec(std::vector<std::int32_t>* v);

  // Validated element count of a variable-length field: fails unless at
  // least `elem_bytes * count` bytes remain (elem_bytes >= 1), so corrupted
  // counts are rejected before any container reserves space.
  Status Count(std::uint64_t* count, std::uint64_t elem_bytes);

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_->size() - pos_; }
  bool AtEnd() const { return pos_ == data_->size(); }

 private:
  Status Raw(void* dst, size_t n);

  const std::string* data_;
  size_t pos_ = 0;
};

// FNV-1a over a byte range; the persisted blob's integrity checksum.
std::uint64_t Fnv1a64(const char* data, size_t n);
inline std::uint64_t Fnv1a64(const std::string& s) { return Fnv1a64(s.data(), s.size()); }

// Folds `v` into the running hash `h` (boost::hash_combine's mixing step).
inline std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SUPPORT_BINARY_IO_H_
