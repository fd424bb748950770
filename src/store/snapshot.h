#ifndef LCAKNAP_STORE_SNAPSHOT_H
#define LCAKNAP_STORE_SNAPSHOT_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/lca_kp.h"

/// \file snapshot.h
/// Versioned, checksummed binary persistence for `LcaKpRun` warm state.
///
/// The LCA model's whole point is that a small shared state plus a read-only
/// seed answers any query consistently (Lemma 4.9): every served answer is a
/// pure function of `(L(Ĩ), EPS)`.  That small state is exactly what this
/// format serializes — once a warm-up has been paid, the run can be written
/// to disk, verified, and rehydrated across process restarts and across many
/// tenant instances, with `core::run_digest` as the byte-equality oracle
/// proving a loaded snapshot is indistinguishable from a live warm-up.
///
/// Layout (all integers little-endian, no padding; see docs/PERSISTENCE.md):
///
///   magic "LCAKSNAP" | u32 version | u64 total_size
///   fingerprint block (instance identity + resolved config + tape layout)
///   payload: sorted L(Ĩ) indices, small-item rule, EPS (grid + doubles),
///            diagnostics (large_mass, q, t, samples_used, tilde_size)
///   u64 CRC-64/XZ over every preceding byte
///
/// Safety invariants, enforced at load:
///  * any bit flip is rejected (`SnapshotCorrupt`) — the CRC covers the
///    whole file including magic, version, and fingerprint;
///  * any truncation is rejected (`SnapshotTruncated`) — the header records
///    the expected total size;
///  * a snapshot can never be loaded against the wrong instance or config
///    (`SnapshotMismatch`) — the fingerprint pins (n, capacity, totals),
///    the shared seed, eps and every resolved sampling parameter, the
///    warm-up tape seed, and the shard layout;
///  * a crashed writer never leaves a loadable half-snapshot — writes go to
///    a temp file that is atomically renamed into place (`write_snapshot`).

namespace lcaknap::store {

/// Everything that determines the warm-up's output, captured so a snapshot
/// is only ever rehydrated into an exactly-equivalent serving context.  Two
/// fingerprints are equal iff a live warm-up under either would produce the
/// same `(L(Ĩ), EPS)` byte-for-byte (instance identity is approximated by
/// the metadata the access model exposes for free: n, capacity, totals).
struct SnapshotFingerprint {
  // --- instance identity (free metadata of Definition 2.2) ----------------
  std::uint64_t n = 0;
  std::int64_t capacity = 0;
  std::int64_t total_profit = 0;
  std::int64_t total_weight = 0;
  // --- shared seed + resolved run parameters ------------------------------
  double eps = 0.0;
  std::uint64_t seed = 0;
  std::uint32_t domain_bits = 0;
  std::uint32_t branching = 0;
  double tau = 0.0;
  double rho = 0.0;
  double beta = 0.0;
  std::uint64_t large_samples = 0;
  std::uint64_t quantile_samples = 0;
  // --- warm-up tape layout -------------------------------------------------
  std::uint64_t tape_seed = 0;
  std::uint32_t warmup_shards = 0;
  bool reproducible_quantiles = true;
  bool paper_constants = false;
  // --- instance version (src/dyn) ------------------------------------------
  /// Epoch of the evolving instance this warm state was derived from; 0 for
  /// static instances.  Two epochs of one tenant share every field above
  /// when a batch only re-weights items, so the epoch id is part of the
  /// identity: a stale-epoch snapshot must be a SnapshotMismatch, not a
  /// silently-served answer from the past.
  std::uint64_t epoch_id = 0;

  /// Field-wise equality; doubles compare by bit pattern (a fingerprint is
  /// an identity, not a measurement, so -0.0 vs 0.0 must not unify).
  [[nodiscard]] bool equals(const SnapshotFingerprint& other) const noexcept;
};

/// The fingerprint a live warm-up of `lca` with `run_warmup(tape_seed)`
/// would carry: instance metadata read through the access object, the
/// *resolved* sampling parameters (not the raw config, whose auto fields
/// could resolve differently across versions), and the fixed shard layout.
[[nodiscard]] SnapshotFingerprint fingerprint_of(const core::LcaKp& lca,
                                                 std::uint64_t tape_seed,
                                                 std::uint64_t epoch_id = 0);

// --- error taxonomy ---------------------------------------------------------

/// Base of every snapshot failure; catch this to mean "do a live warm-up".
class SnapshotError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// The file ends before the size its own header promises (or is shorter
/// than any valid header).  A crashed writer cannot produce this — writes
/// are temp-then-rename — but an operator's stray `cp` mid-flight can.
class SnapshotTruncated final : public SnapshotError {
  using SnapshotError::SnapshotError;
};
/// Bad magic, unsupported version, failed CRC, or non-canonical structure.
/// Never served: the caller must fall back to a live warm-up.
class SnapshotCorrupt final : public SnapshotError {
  using SnapshotError::SnapshotError;
};
/// Structurally valid snapshot of a *different* serving context (other
/// instance, seed, eps, sampling budgets, tape, or shard layout).
class SnapshotMismatch final : public SnapshotError {
  using SnapshotError::SnapshotError;
};
/// The file could not be read or written at all (missing, permissions, …).
class SnapshotIoError final : public SnapshotError {
  using SnapshotError::SnapshotError;
};

// --- encoding ----------------------------------------------------------------

inline constexpr char kSnapshotMagic[8] = {'L', 'C', 'A', 'K',
                                           'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// CRC-64/XZ (the reflected form of the ECMA-182 polynomial,
/// 0x42F0E1EBA9EA3693), the trailer checksum.  Exposed so tests can craft
/// deliberately-corrupt-but-checksummed buffers (e.g. to exercise the
/// version check behind a valid CRC), and reused by the certificate log
/// (src/cert) so one checksum implementation seals both formats.
[[nodiscard]] std::uint64_t crc64(std::string_view bytes) noexcept;

/// Canonical byte size of an encoded `SnapshotFingerprint` block.  The
/// fingerprint encoding is shared with the certificate log header
/// (docs/CERTIFICATES.md), which embeds the block verbatim so a certificate
/// log and the snapshot it audits against are pinned by the same identity.
inline constexpr std::size_t kFingerprintBytes = 120;

/// Appends the canonical fixed-width little-endian encoding of `fp`
/// (exactly `kFingerprintBytes` bytes) to `out`.
void encode_fingerprint(std::string& out, const SnapshotFingerprint& fp);

/// Decodes a fingerprint block produced by `encode_fingerprint`.  Throws
/// SnapshotTruncated when `bytes` is shorter than `kFingerprintBytes` and
/// SnapshotCorrupt on unknown flag bits or trailing bytes.
[[nodiscard]] SnapshotFingerprint decode_fingerprint(std::string_view bytes);

/// Serializes `(fingerprint, run)` into the canonical byte string: two
/// encodes of the same state are bit-identical (large indices are sorted,
/// all widths fixed), so snapshot bytes can themselves be compared or
/// content-addressed.
[[nodiscard]] std::string encode_snapshot(const SnapshotFingerprint& fingerprint,
                                          const core::LcaKpRun& run);

/// Parses and fully validates a snapshot buffer.  Order of checks: header
/// shape and size (SnapshotTruncated), CRC over the whole buffer, then
/// magic/version/structure (SnapshotCorrupt), then — when `expected` is
/// given — the fingerprint (SnapshotMismatch).  On success, `actual` (when
/// non-null) receives the stored fingerprint.
[[nodiscard]] core::LcaKpRun decode_snapshot(
    std::string_view bytes, const SnapshotFingerprint* expected = nullptr,
    SnapshotFingerprint* actual = nullptr);

// --- file protocol -----------------------------------------------------------

/// Publishes `bytes` at `path`: writes them to `temp_path` (which must be
/// in the same directory), flushes, then renames it over `path`.  A reader
/// racing the write sees the old complete file or the new complete file,
/// never a prefix.  Nothing is fsynced, so the rename gives atomic
/// visibility, not durability: a host crash right after it can lose the
/// write.  Throws SnapshotIoError on any filesystem failure; a temp file
/// that was created is removed first.
void write_file_atomically(const std::string& path, const std::string& temp_path,
                           std::string_view bytes);

/// Atomic snapshot write: encodes, then `write_file_atomically` through
/// `path + ".tmp"`.  Throws SnapshotIoError on any filesystem failure.
void write_snapshot(const std::string& path,
                    const SnapshotFingerprint& fingerprint,
                    const core::LcaKpRun& run);

/// Reads and validates `path` (see decode_snapshot for the check order and
/// exception contract; missing/unreadable files throw SnapshotIoError).
[[nodiscard]] core::LcaKpRun read_snapshot(
    const std::string& path, const SnapshotFingerprint* expected = nullptr,
    SnapshotFingerprint* actual = nullptr);

/// The stored fingerprint of a snapshot file, after full validation (the
/// CRC covers the fingerprint, so this reads the whole file).
[[nodiscard]] SnapshotFingerprint read_snapshot_fingerprint(
    const std::string& path);

}  // namespace lcaknap::store

#endif  // LCAKNAP_STORE_SNAPSHOT_H
