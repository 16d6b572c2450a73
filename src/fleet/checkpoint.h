// Versioned, checksummed on-disk checkpoint container for the fleet
// service — the durable form of System::save()/load().
//
// Layout (all fields little-endian, independent of host byte order):
//
//   Header (32 bytes)
//     0   char[8]  magic            "SECDDRCK"
//     8   u32      version          currently 2
//     12  u32      reserved         0
//     16  u64      config_hash      System::config_hash() of the producer
//     24  u32      reserved         0
//     28  u32      header_crc       CRC-32 of bytes [0, 28)
//
//   Data block (repeated; the payload chunked into <= kBlockBytes)
//     +0  u32      payload_bytes    > 0
//     +4  u32      block_index      0, 1, 2, ... (detects reordering)
//     +8  u32      payload_crc      CRC-32 of the payload
//     +12 u8[payload_bytes]
//
//   Footer (mandatory)
//     +0  u32      0                payload_bytes == 0 marks the footer
//     +4  u32      0
//     +8  u32      footer_crc       CRC-32 of the 8-byte total field
//     +12 u64      total_bytes      must equal the sum of payload_bytes
//
// Same discipline as sim/trace_codec (whose CRC-32 this reuses): every
// structural violation throws CheckpointFormatError carrying the file
// path and byte offset; tests/fleet_checkpoint_test.cc is the battery.
// Files are written atomically AND durably: the payload is written to a
// tmp file, fsync'd, renamed over the final name, and the parent
// directory is fsync'd — so a crash (or power cut) at any point leaves
// either the old file or the complete new one, never a torn
// "committed" checkpoint. The fleet keeps N generations per node
// (`<base>.<gen>`); restore walks them newest-first, skipping any that
// fails to decode, so a corrupt newest generation falls back to the
// previous good state instead of aborting.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/system.h"

namespace secddr::fleet {

/// Structurally invalid checkpoint: bad magic, unsupported version,
/// checksum mismatch, truncation, config mismatch. `offset()` is the
/// byte position of the violating structure.
class CheckpointFormatError : public std::runtime_error {
 public:
  CheckpointFormatError(std::string path, std::uint64_t offset,
                        const std::string& what)
      : std::runtime_error(path + ": " + what + " (offset " +
                           std::to_string(offset) + ")"),
        path_(std::move(path)),
        offset_(offset) {}

  const std::string& path() const { return path_; }
  std::uint64_t offset() const { return offset_; }

 private:
  std::string path_;
  std::uint64_t offset_;
};

/// Every present generation of a node's checkpoint failed to decode:
/// there is state on disk but none of it restores. The fleet treats
/// this as grounds for quarantine (restarting from zero would silently
/// discard the node's history), distinct from the clean cold start a
/// missing checkpoint means.
class CheckpointUnrecoverableError : public std::runtime_error {
 public:
  CheckpointUnrecoverableError(std::string base, std::size_t generations,
                               const std::string& detail)
      : std::runtime_error(base + ": all " + std::to_string(generations) +
                           " checkpoint generation(s) unrecoverable — " +
                           detail),
        base_(std::move(base)),
        generations_(generations) {}

  const std::string& base() const { return base_; }
  std::size_t generations() const { return generations_; }

 private:
  std::string base_;
  std::size_t generations_;
};

namespace checkpoint {

inline constexpr std::uint8_t kMagic[8] = {'S', 'E', 'C', 'D',
                                           'D', 'R', 'C', 'K'};
/// Bumped whenever the System::save payload layout changes, so an older
/// file fails the version check instead of loading misaligned.
inline constexpr std::uint32_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 32;
inline constexpr std::size_t kBlockHeaderBytes = 12;
inline constexpr std::size_t kFooterTotalBytes = 8;
/// Chunk size for the payload blocks (each independently CRC'd).
inline constexpr std::size_t kBlockBytes = 1u << 20;
/// Allocation guard while reading: a corrupt payload_bytes field must
/// not trigger a pathological malloc.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 28;

/// Wraps a serialized state payload in the container format.
std::vector<std::uint8_t> encode(std::uint64_t config_hash,
                                 const std::vector<std::uint8_t>& payload);

/// Validates and unwraps a container; returns the payload and stores the
/// header's config hash. `path` labels any CheckpointFormatError thrown.
std::vector<std::uint8_t> decode(const std::uint8_t* data, std::size_t n,
                                 const std::string& path,
                                 std::uint64_t* config_hash);

/// Observation points inside write_file, in call order. The production
/// writer passes nullptr; the chaos harness injects crashes and
/// corruption here (fleet/chaos.h). A callback may not return (SIGKILL)
/// or may mutate the named file — write_file re-reads nothing, so a
/// truncation at on_tmp_written survives into the published file,
/// exactly modeling data lost to a crash before fsync.
struct WriteObserver {
  virtual ~WriteObserver() = default;
  /// The tmp file holds a strict prefix of the bytes.
  virtual void on_tmp_partial(const std::string& tmp) { (void)tmp; }
  /// All bytes written to the tmp file, before fsync.
  virtual void on_tmp_written(const std::string& tmp) { (void)tmp; }
  /// Tmp file fsync'd, before the rename publishes it.
  virtual void on_before_rename(const std::string& tmp) { (void)tmp; }
  /// Renamed into place and the parent directory fsync'd.
  virtual void on_published(const std::string& path) { (void)path; }
};

/// Atomically and durably writes `path`: tmp file, fsync(file), rename,
/// fsync(parent directory). Throws std::runtime_error on I/O failure.
void write_file(const std::string& path, std::uint64_t config_hash,
                const std::vector<std::uint8_t>& payload,
                WriteObserver* observer = nullptr);

// --- Generational checkpoints ------------------------------------------
// A node's durable state is a family `<base>.<gen>` with gen = 1, 2, ...
// The writer publishes the next generation, then garbage-collects so at
// most `keep` generations remain; restore walks newest-first.

/// Path of generation `gen` of `base`.
std::string generation_path(const std::string& base, std::uint64_t gen);

struct GenerationFile {
  std::uint64_t gen = 0;
  std::string path;
};

/// Every `<base>.<gen>` present on disk, ascending by generation.
/// Missing directory or no matches -> empty (a clean cold start).
std::vector<GenerationFile> list_generations(const std::string& base);

/// Generation the next write should use (newest present + 1, else 1).
std::uint64_t next_generation(const std::string& base);

/// Deletes all but the newest `keep` generations of `base`.
void gc_generations(const std::string& base, unsigned keep);

/// Reads and validates a checkpoint file. Throws CheckpointFormatError
/// on structural violations, std::runtime_error when unreadable.
std::vector<std::uint8_t> read_file(const std::string& path,
                                    std::uint64_t* config_hash);

// --- System-level convenience ------------------------------------------

/// System::save() wrapped in the container, stamped with config_hash().
std::vector<std::uint8_t> encode_system(const sim::System& sys);
/// Restores a container produced by encode_system into `sys` (built from
/// an equivalent config; its traces freshly positioned). Throws
/// CheckpointFormatError when the config hashes disagree (offset 16).
void decode_system(sim::System& sys, const std::uint8_t* data, std::size_t n,
                   const std::string& path);

/// encode_system + write_file.
void save_system_file(const sim::System& sys, const std::string& path);
/// read_file + decode_system.
void restore_system_file(sim::System& sys, const std::string& path);

// --- RunResult codec ----------------------------------------------------
// Canonical byte form of a RunResult: doubles travel as IEEE-754 bit
// patterns, so "bit-identical results" can be asserted (and aggregates
// compared) as plain byte equality.
void save_result(serial::Sink& s, const sim::RunResult& r);
sim::RunResult load_result(serial::Source& s);
std::vector<std::uint8_t> encode_result(const sim::RunResult& r);

}  // namespace checkpoint
}  // namespace secddr::fleet
