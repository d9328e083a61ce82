// Content-addressed on-disk artifact store.
//
// Objects are keyed by strings — in practice the pipeline's stage-key
// strings (which already serialize *exactly* the inputs a stage consumed;
// see the key builders in pipeline/session.h) prefixed with a fingerprint
// of the owning spec. They live as records in append-only pack files
// under one directory:
//
//   <dir>/<pid>-<ns>-<seq>.pack
//
// Each record carries a fixed header (magic + format version, key length,
// payload length, payload hash) followed by the full key echo and the
// payload. Records are laid end to end. Every load re-validates the whole
// record: a truncated, bit-flipped or misplaced record is a *miss*, never
// served — the store trusts nothing it did not just verify.
//
// Publication is by append. Each writing Store opens its own pack lazily
// on the first put (O_CREAT|O_EXCL|O_APPEND under a fresh name) and
// appends each record in one write; no process ever writes another's
// pack. There is no tmp file, rename or fsync: creating a small file per
// object costs hundreds of microseconds, appending to an open one a few.
// A writer that dies mid-append leaves a torn tail, and one whose append
// fails part-way abandons its pack and opens a fresh one on the next put,
// so no intact record ever sits behind a torn one. A writer whose pack
// another store's gc unlinked notices before its next append (the fd's
// link count is 0) and moves to a fresh pack, so its records stay
// visible.
//
// When a store closes its pack (the Store is destroyed) it appends a
// summary block: one (fnv1a64(key), offset, length) entry per record, a
// checksum and a fixed trailer. The pack is then *sealed*: it never
// changes again, and a reader indexes it from the summary alone, without
// reading or hashing any key echo. A pack without a valid summary is read
// record by record. A writer holds flock(LOCK_EX) on its pack from before
// its first append until it closes it; a reader that first finds a
// non-empty pack nobody holds (its writer died, or abandoned it after a
// failed append) reads it once: it is *final*, like a sealed pack.
//
// The index maps fnv1a64(key) to the (pack, offset, length) of each
// record of that key — never keys or payloads, so it stays small. A
// store fills it on an index miss by catching up: it re-lists the
// directory for new packs (only when the directory's mtime moved since a
// listing made well after its last change), then stats each known pack
// that is not final and reads only what it gained since the last look —
// the summary if it is now sealed, else the headers and key echoes of
// the new records, in 64 KiB chunks. A record walk stops at the first
// record with a bad magic or one that does not fit in the file, and
// resumes there next time, so a concurrent writer's in-flight append or
// a crashed writer's torn tail is never indexed. A miss therefore costs
// a directory stat plus one stat per pack that was still being written
// when this store found it, not one per pack in the directory; the
// first miss of a fresh store reads every pack's summary (or records)
// once. A key may have several records (a recompute, racing writers): a
// get tries the latest it knows first (the later pack found, the later
// offset) and serves the first intact one. Keys name their content, so
// any intact record of a key holds the same bytes.
//
// Reads open the pack, pread the one record and close it again. A store
// holds no fd per pack (a long-lived directory can have thousands of
// them), only the fd of its own pack while it writes.
//
// Concurrency: any number of processes and threads may put/get/gc the
// same directory concurrently. Within one Store, the index, the pack
// table and the writer fd are guarded by `mu_`, which is only held to
// look up, append or merge — record reads, validation and the catch-up's
// directory and pack I/O run outside it. Catch-ups run one at a time
// under `catch_up_mu_` (taken before `mu_`), so concurrent misses do not
// scan the same bytes twice. Across processes, the pack files are the
// only shared state: a reader only indexes whole records, and gc()
// evicts by unlink(2), so a record a reader already holds is unaffected.
//
// Eviction (gc) is size-bounded, pack-granular and age-ordered:
// successful loads bump their pack's mtime, and when the packs exceed
// max_bytes the least-recently-used packs go first, never the calling
// store's own open pack. Debris of the old file-per-object layout (loose
// `<16-hex>` object files, stale `.tmp.` files) is never read and is
// reaped on the way.
//
// Metrics land in obs::Registry::global() under cas.{hits,misses,stores,
// evictions,corrupt}; each get and put runs in a `cas.get`/`cas.put`
// span. `sunfloor_cli cas stats|gc` is the operator surface.
#pragma once

#include <cstdint>
#include <ctime>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sunfloor/util/mutex.h"

namespace sunfloor::obs {
class Counter;
}

namespace sunfloor::cas {

/// FNV-1a over `s`, continuing from `h`. The store's one hash: the index
/// key, payload checksums and key fingerprints all use it.
std::uint64_t fnv1a64(std::string_view s,
                      std::uint64_t h = 0xcbf29ce484222325ULL);

struct StoreOptions {
    /// Object directory; created (one level) if missing.
    std::string dir;
    /// Soft size bound on the packs, enforced by gc(); 0 = unbounded.
    std::uint64_t max_bytes = 0;
    /// gc() reaps `.tmp.` debris of the old layout older than this (a
    /// file-per-object writer still running holds its tmp file seconds).
    double tmp_min_age_sec = 60.0;
};

/// Directory census (stats subcommand); computed from every pack's
/// summary (sealed packs) or record headers (the rest), so it is exact at
/// the instant of the scan. Payloads are not validated here — gets do
/// that.
struct StoreStats {
    /// Distinct keys with at least one whole record, and the record bytes
    /// of one record each.
    std::uint64_t objects = 0;
    std::uint64_t object_bytes = 0;
    /// Pack files and their total size on disk (superseded records,
    /// summary blocks and torn tails included).
    std::uint64_t packs = 0;
    std::uint64_t pack_bytes = 0;
    /// Old-layout files: loose `<16-hex>` objects and `.tmp.` files.
    std::uint64_t debris_files = 0;
    std::uint64_t debris_bytes = 0;
};

struct GcResult {
    std::uint64_t evicted_packs = 0;
    std::uint64_t evicted_bytes = 0;
    std::uint64_t removed_debris = 0;
};

class Store {
  public:
    /// Opens (creating if needed) the object directory. Throws
    /// std::runtime_error when the directory cannot be created or is not a
    /// directory.
    explicit Store(StoreOptions opts);
    ~Store();
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;

    const StoreOptions& options() const { return opts_; }

    /// Append `payload` under `key` to this store's pack. Within a pack,
    /// a later record of the same key supersedes earlier ones. Returns
    /// false on I/O failure — callers treat that as "not cached", never
    /// as an error.
    bool put(std::string_view key, std::string_view payload)
        SF_EXCLUDES(mu_);

    /// Load the payload stored under `key`. Returns false on miss; a
    /// corrupt record (bad magic/lengths/checksum) counts as a miss, is
    /// dropped from the index, and bumps cas.corrupt. A successful load
    /// refreshes its pack's timestamps (the gc() recency order).
    bool get(std::string_view key, std::string& payload_out)
        SF_EXCLUDES(catch_up_mu_, mu_);

    StoreStats stats() const;

    /// Remove old-layout debris, then evict least-recently-used packs
    /// until the packs fit max_bytes (no eviction when max_bytes == 0).
    GcResult gc() SF_EXCLUDES(mu_);

  private:
    struct Pack {
        std::string name;
        /// Offset the next catch-up resumes at; for the store's own pack,
        /// the end of its last whole append.
        std::uint64_t scanned = 0;
        /// File size at the last look: an unchanged size is not re-read.
        std::uint64_t size = 0;
        bool gone = false;
        /// Sealed or final: never changes again, never looked at again.
        bool sealed = false;
    };
    struct Loc {
        std::uint32_t pack;
        std::uint64_t off;
        std::uint64_t len;
    };

    std::string pack_path(std::uint32_t id) const SF_REQUIRES(mu_);
    std::uint32_t pack_id(const std::string& name) SF_REQUIRES(mu_);
    /// Names of the `*.pack` files when the directory may have changed
    /// since the last listing; empty when it cannot have.
    std::vector<std::string> list_packs_if_changed()
        SF_REQUIRES(catch_up_mu_);
    void catch_up() SF_EXCLUDES(catch_up_mu_, mu_);
    /// Serve `key` from the records indexed for it; false when none of
    /// them is intact.
    bool serve(std::string_view key, std::uint64_t key_hash,
               std::string& payload_out) SF_EXCLUDES(mu_);
    /// Remove one location from the index; false if it was not there.
    bool drop(std::uint64_t key_hash, const Loc& loc) SF_REQUIRES(mu_);
    void forget_pack(std::uint32_t id) SF_REQUIRES(mu_);
    bool open_writer() SF_REQUIRES(mu_);
    /// Close the store's own pack, first appending its summary if `seal`.
    void close_writer(bool seal) SF_REQUIRES(mu_);
    bool writer_unlinked() const SF_REQUIRES(mu_);

    const StoreOptions opts_;
    obs::Counter* hits_;
    obs::Counter* misses_;
    obs::Counter* stores_;
    obs::Counter* evictions_;
    obs::Counter* corrupt_;

    util::Mutex catch_up_mu_;
    /// The directory's mtime at the last listing, and whether that
    /// listing came long enough after it to be trusted until it moves.
    struct timespec dir_mtime_ SF_GUARDED_BY(catch_up_mu_) = {};
    bool dir_current_ SF_GUARDED_BY(catch_up_mu_) = false;

    util::Mutex mu_ SF_ACQUIRED_AFTER(catch_up_mu_);
    std::vector<Pack> packs_ SF_GUARDED_BY(mu_);
    std::unordered_map<std::string, std::uint32_t> pack_ids_
        SF_GUARDED_BY(mu_);
    /// fnv1a64(key) -> each record of that key.
    std::unordered_multimap<std::uint64_t, Loc> index_ SF_GUARDED_BY(mu_);
    int writer_fd_ SF_GUARDED_BY(mu_) = -1;
    std::uint32_t writer_pack_ SF_GUARDED_BY(mu_) = 0;
    /// The summary entries of the records appended to the own pack.
    std::string summary_ SF_GUARDED_BY(mu_);
};

}  // namespace sunfloor::cas
