#pragma once

// On-disk checkpoint format (docs/checkpoint.md is the normative spec).
//
// A checkpoint file `ckpt-<id>.sfc` is written to `<id>.sfc.tmp` and
// renamed into place only after the footer landed, so a SIGKILL at any
// instant leaves either a complete file or an ignorable temp/truncated one:
//
//   FileHeader | Segment* | Manifest | Footer
//
// Every variable-size region carries its own CRC32 and the fixed-size
// Footer (validated first, from the end of the file) locates the Manifest,
// which in turn locates every Segment — including segments in *earlier*
// files: an incremental checkpoint re-emits only dirty slots and its
// manifest references the clean slots' segments in the originating files
// directly (flattened — restore never chases a parent chain).
//
// Integers are fixed-width native-endian (this is a warm-restart format
// for the machine that wrote it, not an interchange format).

#include <cstdint>
#include <cstring>
#include <vector>

namespace sftree::ckpt {

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
// ---------------------------------------------------------------------------
inline const std::uint32_t* crc32Table() {
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

inline std::uint32_t crc32(const void* data, std::size_t n,
                           std::uint32_t seed = 0) {
  const std::uint32_t* table = crc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Byte serialization helpers
// ---------------------------------------------------------------------------
struct ByteBuf {
  std::vector<unsigned char> bytes;

  void putU32(std::uint32_t v) { putRaw(&v, sizeof v); }
  void putU64(std::uint64_t v) { putRaw(&v, sizeof v); }
  void putI64(std::int64_t v) { putRaw(&v, sizeof v); }
  void putRaw(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    bytes.insert(bytes.end(), b, b + n);
  }
  std::size_t size() const { return bytes.size(); }
  const unsigned char* data() const { return bytes.data(); }
  std::uint32_t crc() const { return crc32(bytes.data(), bytes.size()); }
};

// Bounds-checked reader: any out-of-range get flips `ok` and returns 0, so
// a torn or corrupt region parses to a rejected file instead of UB.
struct ByteReader {
  const unsigned char* p = nullptr;
  std::size_t n = 0;
  std::size_t off = 0;
  bool ok = true;

  ByteReader(const void* data, std::size_t len)
      : p(static_cast<const unsigned char*>(data)), n(len) {}

  std::uint32_t getU32() { return get<std::uint32_t>(); }
  std::uint64_t getU64() { return get<std::uint64_t>(); }
  std::int64_t getI64() { return get<std::int64_t>(); }

  template <class T>
  T get() {
    T v{};
    if (!ok || n - off < sizeof(T)) {
      ok = false;
      return v;
    }
    std::memcpy(&v, p + off, sizeof(T));
    off += sizeof(T);
    return v;
  }
};

// ---------------------------------------------------------------------------
// Layout constants
// ---------------------------------------------------------------------------
// Region magics ("SFTCKPT1" etc. as little-endian u64 of the ASCII bytes).
constexpr std::uint64_t kFileMagic = 0x3154504B43544653ULL;      // "SFTCKPT1"
constexpr std::uint64_t kSegmentMagic = 0x3130474553434653ULL;   // "SFCSEG01"
constexpr std::uint64_t kManifestMagic = 0x31304E414D434653ULL;  // "SFCMAN01"
constexpr std::uint64_t kFooterMagic = 0x31304F4F46434653ULL;    // "SFCFOO01"
constexpr std::uint32_t kFormatVersion = 1;

// Per-KV payload cell: i64 key, i64 value.
constexpr std::size_t kKvBytes = 16;

// Serialized sizes (must match the write/read code below exactly).
constexpr std::size_t kFileHeaderBytes = 8 + 4 + 4 + 8 + 8 + 4 + 4 + 8 + 4;
constexpr std::size_t kSegmentHeaderBytes = 8 + 4 + 4 + 8 + 8 + 4;
constexpr std::size_t kFooterBytes = 8 + 8 + 8 + 4 + 4;

// A slot whose cut-time write tick could not be pinned exactly (forced-cut
// race window) gets this sentinel in the manifest: no live tick ever
// reaches it, so future incremental captures always treat the slot dirty.
constexpr std::uint64_t kTickUnknown = ~0ULL;

// ---------------------------------------------------------------------------
// Parsed structures
// ---------------------------------------------------------------------------
struct FileHeader {
  std::uint32_t version = kFormatVersion;
  std::uint32_t routingSlots = 0;
  std::uint64_t fileId = 0;
  std::uint64_t parentId = 0;  // 0 = full image
  std::uint32_t shardCount = 0;
  std::uint64_t createdNs = 0;

  void serialize(ByteBuf& b) const {
    b.putU64(kFileMagic);
    b.putU32(version);
    b.putU32(routingSlots);
    b.putU64(fileId);
    b.putU64(parentId);
    b.putU32(shardCount);
    b.putU32(0);  // reserved
    b.putU64(createdNs);
    b.putU32(b.crc());
  }
  bool parse(ByteReader& r) {
    const std::size_t start = r.off;
    if (r.getU64() != kFileMagic) return false;
    version = r.getU32();
    routingSlots = r.getU32();
    fileId = r.getU64();
    parentId = r.getU64();
    shardCount = r.getU32();
    (void)r.getU32();
    createdNs = r.getU64();
    const std::uint32_t want = crc32(r.p + start, r.off - start);
    return r.ok && r.getU32() == want && version == kFormatVersion;
  }
};

struct SegmentHeader {
  std::uint32_t slot = 0;
  std::uint64_t count = 0;
  std::uint64_t payloadBytes = 0;
  std::uint32_t payloadCrc = 0;

  void serialize(ByteBuf& b) const {
    b.putU64(kSegmentMagic);
    b.putU32(slot);
    b.putU32(0);  // reserved
    b.putU64(count);
    b.putU64(payloadBytes);
    b.putU32(payloadCrc);
  }
  bool parse(ByteReader& r) {
    if (r.getU64() != kSegmentMagic) return false;
    slot = r.getU32();
    (void)r.getU32();
    count = r.getU64();
    payloadBytes = r.getU64();
    payloadCrc = r.getU32();
    return r.ok && payloadBytes == count * kKvBytes;
  }
};

// One manifest row per routing slot. `fileId`/`offset` locate the slot's
// segment header in its ORIGINATING checkpoint file (flattened incremental
// references). `writeTick` is the slot's certified dirty tick at the cut —
// the baseline the next incremental capture compares against.
struct ManifestEntry {
  std::uint32_t slot = 0;
  std::int32_t ownerShard = 0;
  std::uint64_t fileId = 0;
  std::uint64_t offset = 0;
  std::uint64_t count = 0;
  std::uint64_t writeTick = 0;
};

struct Manifest {
  std::uint64_t fileId = 0;
  std::uint64_t parentId = 0;
  std::uint32_t routingSlots = 0;
  std::uint32_t shardCount = 0;
  std::uint64_t keys = 0;
  std::uint32_t forcedCut = 0;
  std::uint32_t rounds = 0;
  std::vector<ManifestEntry> slots;
  // Forced-cut provenance: the cut transaction's read stamp on the map's
  // clock (Tx::snapshotStamp), one entry; the on-disk field is a counted
  // list. Empty for an optimistic (tick-certified) cut.
  std::vector<std::uint64_t> cutStamps;

  void serialize(ByteBuf& b) const {
    b.putU64(kManifestMagic);
    b.putU64(fileId);
    b.putU64(parentId);
    b.putU32(routingSlots);
    b.putU32(shardCount);
    b.putU64(keys);
    b.putU32(forcedCut);
    b.putU32(rounds);
    b.putU32(static_cast<std::uint32_t>(slots.size()));
    b.putU32(static_cast<std::uint32_t>(cutStamps.size()));
    for (const ManifestEntry& e : slots) {
      b.putU32(e.slot);
      b.putU32(static_cast<std::uint32_t>(e.ownerShard));
      b.putU64(e.fileId);
      b.putU64(e.offset);
      b.putU64(e.count);
      b.putU64(e.writeTick);
    }
    for (const std::uint64_t s : cutStamps) b.putU64(s);
    b.putU32(b.crc());
  }
  bool parse(ByteReader& r) {
    const std::size_t start = r.off;
    if (r.getU64() != kManifestMagic) return false;
    fileId = r.getU64();
    parentId = r.getU64();
    routingSlots = r.getU32();
    shardCount = r.getU32();
    keys = r.getU64();
    forcedCut = r.getU32();
    rounds = r.getU32();
    const std::uint32_t nSlots = r.getU32();
    const std::uint32_t nStamps = r.getU32();
    if (!r.ok || nSlots != routingSlots) return false;
    slots.resize(nSlots);
    for (ManifestEntry& e : slots) {
      e.slot = r.getU32();
      e.ownerShard = static_cast<std::int32_t>(r.getU32());
      e.fileId = r.getU64();
      e.offset = r.getU64();
      e.count = r.getU64();
      e.writeTick = r.getU64();
    }
    cutStamps.resize(nStamps);
    for (std::uint64_t& s : cutStamps) s = r.getU64();
    if (!r.ok) return false;
    const std::uint32_t want = crc32(r.p + start, r.off - start);
    return r.getU32() == want;
  }
};

struct Footer {
  std::uint64_t manifestOffset = 0;
  std::uint64_t manifestLen = 0;
  std::uint32_t manifestCrc = 0;

  void serialize(ByteBuf& b) const {
    b.putU64(kFooterMagic);
    b.putU64(manifestOffset);
    b.putU64(manifestLen);
    b.putU32(manifestCrc);
    b.putU32(b.crc());
  }
  bool parse(ByteReader& r) {
    const std::size_t start = r.off;
    if (r.getU64() != kFooterMagic) return false;
    manifestOffset = r.getU64();
    manifestLen = r.getU64();
    manifestCrc = r.getU32();
    const std::uint32_t want = crc32(r.p + start, r.off - start);
    return r.ok && r.getU32() == want;
  }
};

}  // namespace sftree::ckpt
