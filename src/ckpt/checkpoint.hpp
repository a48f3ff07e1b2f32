#pragma once

// CheckpointWriter / restore: durable incremental checkpoints of a live
// ShardedMap, and the warm-restart path that rebuilds one from disk.
// Format in format.hpp; cut semantics in snapshot_cursor.hpp; the whole
// story in docs/checkpoint.md.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/snapshot_cursor.hpp"
#include "obs/metrics.hpp"
#include "shard/sharded_map.hpp"

namespace sftree::ckpt {

struct CheckpointConfig {
  // Directory checkpoints live in (created if missing). Files are named
  // ckpt-<id>.sfc with monotonically increasing ids; incremental manifests
  // reference clean segments in earlier files, so earlier files referenced
  // by the newest manifest must not be deleted.
  std::string dir;
  SnapshotOptions snapshot{};
  // Crash-injection hooks for the crash-and-restore CI tier: SIGKILL the
  // process after N fresh segments hit the (flushed) temp file, or right
  // before the rename that publishes it. Both must leave the directory
  // restorable from the previous complete checkpoint.
  int killAfterSegments = -1;
  bool killBeforeRename = false;
};

struct CheckpointResult {
  bool ok = false;
  std::uint64_t fileId = 0;
  std::string path;
  std::uint64_t keys = 0;       // keys in the full logical image
  std::uint64_t segments = 0;   // manifest rows (== routing slots)
  std::uint64_t freshSegments = 0;
  std::uint64_t reusedSegments = 0;
  std::uint64_t bytesWritten = 0;  // bytes physically written to this file
  int rounds = 0;
  bool forcedCut = false;
  std::uint64_t streamNs = 0;  // capture (snapshot stream) wall time
  std::uint64_t writeNs = 0;   // serialize+write+rename wall time
  std::string error;
};

class CheckpointWriter {
 public:
  CheckpointWriter(shard::ShardedMap& map, CheckpointConfig cfg);

  // Full image: every slot streamed fresh.
  CheckpointResult full();
  // Incremental: slots whose dirty tick still matches the newest valid
  // manifest reuse that manifest's segments; falls back to a full image
  // when no valid parent exists (or topology changed).
  CheckpointResult incremental();

  // Counters for dashboards: checkpoints taken, keys/bytes written,
  // forced cuts, reused segments.
  obs::MetricsRegistry::Registration registerMetrics(
      obs::MetricsRegistry& reg, std::string prefix);

 private:
  CheckpointResult write(bool allowReuse);

  shard::ShardedMap& map_;
  CheckpointConfig cfg_;
  // Newest complete manifest on disk, loaded lazily; the incremental
  // baseline and parent reference.
  std::optional<Manifest> parent_;
  bool parentScanned_ = false;
  // Lifetime totals for registerMetrics.
  std::uint64_t totalCheckpoints_ = 0;
  std::uint64_t totalKeys_ = 0;
  std::uint64_t totalBytes_ = 0;
  std::uint64_t totalForcedCuts_ = 0;
  std::uint64_t totalReusedSegments_ = 0;
};

struct RestoreOptions {
  // Template for the rebuilt map: scheduler, tree config, domain and name
  // are honored; shards / routingSlots /
  // initialSlotAssignment are overwritten from the manifest.
  shard::ShardedMapConfig mapConfig{};
  int parallelism = 0;        // shard-loader threads; 0 = hardware
  std::size_t batchKeys = 512;  // keys per adopt transaction
};

struct RestoreReport {
  bool ok = false;
  std::uint64_t fileId = 0;
  std::string path;
  std::uint64_t keys = 0;
  int shards = 0;
  int routingSlots = 0;
  // Newer files present but rejected (torn/corrupt) before a valid one
  // was found — the SIGKILL fallback count.
  int skippedFiles = 0;
  std::uint64_t restoreNs = 0;
  std::string error;
};

// Rebuild a ShardedMap from the newest fully-valid checkpoint in `dir`
// (torn or corrupt files are skipped with a fallback to the previous
// complete one). Shards are bulk-loaded in parallel through adoptRangeTx;
// the returned map is re-registered with the scheduler in
// opt.mapConfig.scheduler (metrics registration stays with the caller).
// Returns nullptr (report.ok == false) when no valid checkpoint exists.
std::unique_ptr<shard::ShardedMap> restore(const std::string& dir,
                                           const RestoreOptions& opt,
                                           RestoreReport& report);

// Validate every checkpoint file in `dir` newest-first: footer, manifest
// checksum, and every referenced segment's payload checksum (across files
// for incremental references). Returns the id of the newest fully-valid
// checkpoint, or nullopt. `badFiles`, if given, counts rejected files.
std::optional<std::uint64_t> newestValidCheckpoint(const std::string& dir,
                                                   int* badFiles = nullptr);

}  // namespace sftree::ckpt
