#include "store/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>
#include <fstream>
#include <vector>

namespace lcaknap::store {

namespace {

// --- CRC-64/ECMA-182 ---------------------------------------------------------

constexpr std::uint64_t kCrc64Poly = 0xC96C5795D7870F42ULL;  // reflected

constexpr std::array<std::uint64_t, 256> make_crc64_table() {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc64Poly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kCrc64Table = make_crc64_table();

// --- little-endian byte stream ----------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian reader over an immutable buffer.  Every
/// overrun throws SnapshotTruncated; by the time the parser runs, the CRC
/// has already passed, so an overrun here means the *writer* produced a
/// short buffer — still never served.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  void need(std::size_t count) const {
    if (bytes_.size() - pos_ < count) {
      throw SnapshotTruncated("snapshot: payload shorter than declared");
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

void put_fingerprint(std::string& out, const SnapshotFingerprint& fp) {
  put_u64(out, fp.n);
  put_i64(out, fp.capacity);
  put_i64(out, fp.total_profit);
  put_i64(out, fp.total_weight);
  put_f64(out, fp.eps);
  put_u64(out, fp.seed);
  put_u32(out, fp.domain_bits);
  put_u32(out, fp.branching);
  put_f64(out, fp.tau);
  put_f64(out, fp.rho);
  put_f64(out, fp.beta);
  put_u64(out, fp.large_samples);
  put_u64(out, fp.quantile_samples);
  put_u64(out, fp.tape_seed);
  put_u32(out, fp.warmup_shards);
  put_u32(out, (fp.reproducible_quantiles ? 1u : 0u) |
                   (fp.paper_constants ? 2u : 0u));
  put_u64(out, fp.epoch_id);
}

SnapshotFingerprint get_fingerprint(ByteReader& in) {
  SnapshotFingerprint fp;
  fp.n = in.u64();
  fp.capacity = in.i64();
  fp.total_profit = in.i64();
  fp.total_weight = in.i64();
  fp.eps = in.f64();
  fp.seed = in.u64();
  fp.domain_bits = in.u32();
  fp.branching = in.u32();
  fp.tau = in.f64();
  fp.rho = in.f64();
  fp.beta = in.f64();
  fp.large_samples = in.u64();
  fp.quantile_samples = in.u64();
  fp.tape_seed = in.u64();
  fp.warmup_shards = in.u32();
  const std::uint32_t flags = in.u32();
  fp.reproducible_quantiles = (flags & 1u) != 0;
  fp.paper_constants = (flags & 2u) != 0;
  if ((flags & ~3u) != 0) {
    throw SnapshotCorrupt("snapshot: unknown fingerprint flags");
  }
  fp.epoch_id = in.u64();
  return fp;
}

/// magic + version + total_size: the prefix needed before anything else can
/// be trusted.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;
constexpr std::size_t kTrailerBytes = 8;  // CRC64

[[nodiscard]] bool bits_equal(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

bool SnapshotFingerprint::equals(const SnapshotFingerprint& other) const noexcept {
  return n == other.n && capacity == other.capacity &&
         total_profit == other.total_profit &&
         total_weight == other.total_weight && bits_equal(eps, other.eps) &&
         seed == other.seed && domain_bits == other.domain_bits &&
         branching == other.branching && bits_equal(tau, other.tau) &&
         bits_equal(rho, other.rho) && bits_equal(beta, other.beta) &&
         large_samples == other.large_samples &&
         quantile_samples == other.quantile_samples &&
         tape_seed == other.tape_seed && warmup_shards == other.warmup_shards &&
         reproducible_quantiles == other.reproducible_quantiles &&
         paper_constants == other.paper_constants && epoch_id == other.epoch_id;
}

SnapshotFingerprint fingerprint_of(const core::LcaKp& lca,
                                   std::uint64_t tape_seed,
                                   std::uint64_t epoch_id) {
  const auto& access = lca.access();
  const auto& config = lca.config();
  const auto& params = lca.params();
  SnapshotFingerprint fp;
  fp.n = access.size();
  fp.capacity = access.capacity();
  fp.total_profit = access.total_profit();
  fp.total_weight = access.total_weight();
  fp.eps = config.eps;
  fp.seed = config.seed;
  fp.domain_bits = static_cast<std::uint32_t>(config.domain_bits);
  fp.branching = static_cast<std::uint32_t>(config.branching);
  fp.tau = params.tau;
  fp.rho = params.rho;
  fp.beta = params.beta;
  fp.large_samples = params.large_samples;
  fp.quantile_samples = params.quantile_samples;
  fp.tape_seed = tape_seed;
  fp.warmup_shards = static_cast<std::uint32_t>(core::LcaKp::kWarmupShards);
  fp.reproducible_quantiles = config.reproducible_quantiles;
  fp.paper_constants = config.paper_constants;
  fp.epoch_id = epoch_id;
  return fp;
}

void encode_fingerprint(std::string& out, const SnapshotFingerprint& fp) {
  const std::size_t before = out.size();
  put_fingerprint(out, fp);
  // The block size is part of the on-disk contract (the certificate log
  // header slices exactly kFingerprintBytes); drift here is a format bug.
  if (out.size() - before != kFingerprintBytes) {
    throw SnapshotCorrupt("snapshot: fingerprint encoding size drifted");
  }
}

SnapshotFingerprint decode_fingerprint(std::string_view bytes) {
  if (bytes.size() < kFingerprintBytes) {
    throw SnapshotTruncated("snapshot: fingerprint block too short");
  }
  ByteReader in(bytes);
  const SnapshotFingerprint fp = get_fingerprint(in);
  if (in.remaining() != 0) {
    throw SnapshotCorrupt("snapshot: trailing bytes after fingerprint block");
  }
  return fp;
}

std::uint64_t crc64(std::string_view bytes) noexcept {
  std::uint64_t crc = ~0ULL;
  for (const char c : bytes) {
    crc = kCrc64Table[(crc ^ static_cast<std::uint8_t>(c)) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

std::string encode_snapshot(const SnapshotFingerprint& fingerprint,
                            const core::LcaKpRun& run) {
  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  put_u32(out, kSnapshotVersion);
  const std::size_t size_field_at = out.size();
  put_u64(out, 0);  // total_size backpatched below
  put_fingerprint(out, fingerprint);

  // Payload.  The large-item set is written sorted so equal states always
  // encode to equal bytes (the in-memory set iterates in hash order).
  std::vector<std::uint64_t> sorted(run.index_large.begin(),
                                    run.index_large.end());
  std::sort(sorted.begin(), sorted.end());
  put_u64(out, sorted.size());
  for (const auto index : sorted) put_u64(out, index);
  put_i64(out, run.e_small_grid);
  put_u8(out, run.singleton ? 1 : 0);
  put_u8(out, run.degenerate ? 1 : 0);
  put_u32(out, static_cast<std::uint32_t>(run.thresholds_grid.size()));
  for (const auto g : run.thresholds_grid) put_i64(out, g);
  for (const auto e : run.thresholds) put_f64(out, e);
  put_f64(out, run.large_mass);
  put_f64(out, run.q);
  put_u32(out, static_cast<std::uint32_t>(run.t));
  put_u64(out, run.samples_used);
  put_u64(out, run.tilde_size);

  // Backpatch the total size, then seal with the CRC over everything so far.
  const std::uint64_t total = out.size() + kTrailerBytes;
  for (int i = 0; i < 8; ++i) {
    out[size_field_at + static_cast<std::size_t>(i)] =
        static_cast<char>(total >> (8 * i));
  }
  put_u64(out, crc64(out));
  return out;
}

core::LcaKpRun decode_snapshot(std::string_view bytes,
                               const SnapshotFingerprint* expected,
                               SnapshotFingerprint* actual) {
  // 1. Shape: enough bytes for the self-describing header, and exactly as
  //    many bytes as that header promises.
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    throw SnapshotTruncated("snapshot: shorter than any valid header");
  }
  {
    ByteReader head(bytes.substr(8 + 4, 8));
    const std::uint64_t declared = head.u64();
    if (bytes.size() < declared) {
      throw SnapshotTruncated("snapshot: file shorter than declared size");
    }
    if (bytes.size() > declared) {
      throw SnapshotCorrupt("snapshot: trailing bytes beyond declared size");
    }
  }
  // 2. Integrity: the trailing CRC covers every preceding byte, so from here
  //    on every field is exactly what the writer produced.
  {
    ByteReader tail(bytes.substr(bytes.size() - kTrailerBytes));
    const std::uint64_t stored = tail.u64();
    const std::uint64_t computed =
        crc64(bytes.substr(0, bytes.size() - kTrailerBytes));
    if (stored != computed) {
      throw SnapshotCorrupt("snapshot: CRC64 mismatch");
    }
  }
  ByteReader in(bytes.substr(0, bytes.size() - kTrailerBytes));
  // 3. Format identity.
  for (const char expected_char : kSnapshotMagic) {
    if (static_cast<char>(in.u8()) != expected_char) {
      throw SnapshotCorrupt("snapshot: bad magic");
    }
  }
  if (const auto version = in.u32(); version != kSnapshotVersion) {
    throw SnapshotCorrupt("snapshot: unsupported format version " +
                          std::to_string(version));
  }
  (void)in.u64();  // total_size, already validated
  // 4. Fingerprint.
  const SnapshotFingerprint fp = get_fingerprint(in);
  if (actual != nullptr) *actual = fp;
  if (expected != nullptr && !fp.equals(*expected)) {
    throw SnapshotMismatch(
        "snapshot: fingerprint mismatch (snapshot was taken of a different "
        "instance, config, or warm-up tape)");
  }
  // 5. Payload.  Element counts are sanity-bounded by the remaining bytes
  //    before any allocation, so a hostile size field cannot balloon memory.
  core::LcaKpRun run;
  const std::uint64_t large_count = in.u64();
  if (large_count > in.remaining() / 8) {
    throw SnapshotCorrupt("snapshot: large-item count exceeds payload");
  }
  run.index_large.reserve(static_cast<std::size_t>(large_count));
  std::uint64_t previous = 0;
  for (std::uint64_t k = 0; k < large_count; ++k) {
    const std::uint64_t index = in.u64();
    if (k > 0 && index <= previous) {
      throw SnapshotCorrupt("snapshot: large-item indices not canonical");
    }
    previous = index;
    run.index_large.insert(static_cast<std::size_t>(index));
  }
  run.e_small_grid = in.i64();
  run.singleton = in.u8() != 0;
  run.degenerate = in.u8() != 0;
  const std::uint32_t threshold_count = in.u32();
  if (threshold_count > in.remaining() / 16) {
    throw SnapshotCorrupt("snapshot: threshold count exceeds payload");
  }
  run.thresholds_grid.reserve(threshold_count);
  for (std::uint32_t k = 0; k < threshold_count; ++k) {
    run.thresholds_grid.push_back(in.i64());
  }
  run.thresholds.reserve(threshold_count);
  for (std::uint32_t k = 0; k < threshold_count; ++k) {
    run.thresholds.push_back(in.f64());
  }
  run.large_mass = in.f64();
  run.q = in.f64();
  run.t = static_cast<int>(in.u32());
  run.samples_used = in.u64();
  run.tilde_size = in.u64();
  if (in.remaining() != 0) {
    throw SnapshotCorrupt("snapshot: unparsed bytes before trailer");
  }
  return run;
}

void write_file_atomically(const std::string& path, const std::string& temp_path,
                           std::string_view bytes) {
  const auto fail = [&temp_path](const std::string& reason) {
    std::error_code ignored;
    std::filesystem::remove(temp_path, ignored);
    throw SnapshotIoError(reason);
  };
  {
    std::ofstream os(temp_path, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw SnapshotIoError("snapshot: cannot open temp file " + temp_path);
    }
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os.good()) {
      os.close();
      fail("snapshot: short write to " + temp_path);
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp_path, path, ec);
  if (ec) {
    fail("snapshot: rename " + temp_path + " -> " + path +
         " failed: " + ec.message());
  }
}

void write_snapshot(const std::string& path,
                    const SnapshotFingerprint& fingerprint,
                    const core::LcaKpRun& run) {
  write_file_atomically(path, path + ".tmp", encode_snapshot(fingerprint, run));
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw SnapshotIoError("snapshot: cannot open " + path);
  }
  std::string bytes;
  is.seekg(0, std::ios::end);
  const auto size = is.tellg();
  if (size < 0) throw SnapshotIoError("snapshot: cannot stat " + path);
  bytes.resize(static_cast<std::size_t>(size));
  is.seekg(0, std::ios::beg);
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!is.good() && !is.eof()) {
    throw SnapshotIoError("snapshot: read error on " + path);
  }
  return bytes;
}

}  // namespace

core::LcaKpRun read_snapshot(const std::string& path,
                             const SnapshotFingerprint* expected,
                             SnapshotFingerprint* actual) {
  return decode_snapshot(read_file(path), expected, actual);
}

SnapshotFingerprint read_snapshot_fingerprint(const std::string& path) {
  SnapshotFingerprint fp;
  (void)decode_snapshot(read_file(path), nullptr, &fp);
  return fp;
}

}  // namespace lcaknap::store
