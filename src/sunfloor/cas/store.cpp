#include "sunfloor/cas/store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "sunfloor/obs/metrics.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::cas {

std::uint64_t fnv1a64(std::string_view s, std::uint64_t h) {
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

// Record layout (all integers little-endian):
//   [0,8)   magic "SFCAS001" (the version is part of the magic — a future
//           layout change bumps it and old records become clean misses)
//   [8,12)  u32 key length
//   [12,20) u64 payload length
//   [20,28) u64 fnv1a64(payload)
//   [28,..) key bytes, then payload bytes
constexpr char kMagic[8] = {'S', 'F', 'C', 'A', 'S', '0', '0', '1'};
constexpr std::size_t kHeaderSize = 28;
// Summary block, written once after a pack's last record when its store
// closes it:
//   [0,8)          magic "SFCASSUM"
//   [8,8+24n)      n entries: u64 fnv1a64(key), u64 record offset,
//                  u64 record length, in file order
//   then u64 n, u64 fnv1a64 of every byte before it in the block, and
//   magic "SFCASEND" — a fixed 24-byte trailer that locates the block
//   from the end of the file.
constexpr char kSummaryMagic[8] = {'S', 'F', 'C', 'A', 'S', 'S', 'U', 'M'};
constexpr char kEndMagic[8] = {'S', 'F', 'C', 'A', 'S', 'E', 'N', 'D'};
constexpr std::size_t kEntrySize = 24;
constexpr std::size_t kTrailerSize = 24;
// A scan reads packs in chunks of this size.
constexpr std::size_t kScanChunk = 64 * 1024;
// File timestamps are at most this coarse on the filesystems a store runs
// on; a directory listed this long after its last change is up to date
// until its mtime moves.
constexpr double kDirTimestampSlackSec = 0.02;

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const unsigned char* p) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

std::uint64_t get_u64(const unsigned char* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

double seconds_between(const timespec& from, const timespec& to) {
    return static_cast<double>(to.tv_sec - from.tv_sec) +
           1e-9 * static_cast<double>(to.tv_nsec - from.tv_nsec);
}

/// Read exactly `n` bytes at `off`; false on an error or end of file.
bool pread_all(int fd, char* p, std::size_t n, std::uint64_t off) {
    while (n > 0) {
        const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(off));
        if (r > 0) {
            p += r;
            n -= static_cast<std::size_t>(r);
            off += static_cast<std::uint64_t>(r);
            continue;
        }
        if (r < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

bool write_all_fd(int fd, const char* p, std::size_t n) {
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w >= 0) {
            p += w;
            n -= static_cast<std::size_t>(w);
            continue;
        }
        if (errno == EINTR) continue;
        return false;
    }
    return true;
}

bool is_object_file_name(std::string_view name) {
    if (name.size() != 16) return false;
    for (const char c : name)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
    return true;
}

bool is_tmp_file_name(std::string_view name) {
    return name.find(".tmp.") != std::string_view::npos;
}

bool is_pack_name(std::string_view name) {
    constexpr std::string_view kExt = ".pack";
    return name.size() > kExt.size() &&
           name.substr(name.size() - kExt.size()) == kExt;
}

struct Found {
    std::uint64_t key_hash;
    std::uint64_t off;
    std::uint64_t len;
};

/// Walk the whole records of a pack from `from` up to `size`, reading
/// each header and key echo and skipping the payload. Stops at the first
/// record with a bad magic or one that does not fit before `size`, and
/// returns that offset: where the next scan resumes. Reads go through a
/// chunk buffer, so small records cost no syscall each.
std::uint64_t scan_records(int fd, std::uint64_t from, std::uint64_t size,
                           std::vector<Found>& found) {
    std::string buf;
    std::uint64_t buf_off = from;  // file offset of buf[0]
    std::uint64_t off = from;
    // Make [off, off + n) resident in buf; false on a read error.
    const auto load = [&](std::uint64_t n) {
        if (off + n <= buf_off + buf.size()) return true;
        buf.resize(static_cast<std::size_t>(
            std::max(n, std::min<std::uint64_t>(kScanChunk, size - off))));
        buf_off = off;
        return pread_all(fd, buf.data(), buf.size(), off);
    };
    while (off < size && size - off >= kHeaderSize) {
        if (!load(kHeaderSize)) break;
        const auto* p = reinterpret_cast<const unsigned char*>(buf.data()) +
                        (off - buf_off);
        if (std::memcmp(p, kMagic, sizeof kMagic) != 0) break;
        const std::uint64_t key_len = get_u32(p + 8);
        const std::uint64_t pay_len = get_u64(p + 12);
        const std::uint64_t room = size - off;
        if (key_len > room - kHeaderSize ||
            pay_len > room - kHeaderSize - key_len)
            break;
        if (!load(kHeaderSize + key_len)) break;
        const std::string_view key(buf.data() + (off - buf_off) + kHeaderSize,
                                   static_cast<std::size_t>(key_len));
        const std::uint64_t len = kHeaderSize + key_len + pay_len;
        found.push_back({fnv1a64(key), off, len});
        off += len;
    }
    return off;
}

/// The summary block that ends a sealed pack of `size` bytes. False when
/// the pack does not end in one that is whole, checks out and lists
/// in-order records that all lie before it.
bool read_summary(int fd, std::uint64_t size, std::vector<Found>& out) {
    if (size < sizeof kSummaryMagic + kTrailerSize) return false;
    unsigned char tail[kTrailerSize];
    if (!pread_all(fd, reinterpret_cast<char*>(tail), sizeof tail,
                   size - sizeof tail) ||
        std::memcmp(tail + 16, kEndMagic, sizeof kEndMagic) != 0)
        return false;
    const std::uint64_t n = get_u64(tail);
    if (n > (size - sizeof kSummaryMagic - kTrailerSize) / kEntrySize)
        return false;
    // Magic, entries and the count: the bytes the checksum covers.
    const std::uint64_t body = sizeof kSummaryMagic + kEntrySize * n + 8;
    const std::uint64_t block_off = size - (body + 16);
    std::string block(static_cast<std::size_t>(body), '\0');
    if (!pread_all(fd, block.data(), block.size(), block_off) ||
        std::memcmp(block.data(), kSummaryMagic, sizeof kSummaryMagic) != 0 ||
        fnv1a64(block) != get_u64(tail + 8))
        return false;
    const auto* p = reinterpret_cast<const unsigned char*>(block.data()) +
                    sizeof kSummaryMagic;
    std::vector<Found> entries;
    entries.reserve(static_cast<std::size_t>(n));
    std::uint64_t end = 0;  // the previous record's end
    for (std::uint64_t i = 0; i < n; ++i, p += kEntrySize) {
        const Found f{get_u64(p), get_u64(p + 8), get_u64(p + 16)};
        if (f.off < end || f.off > block_off || f.len < kHeaderSize ||
            f.len > block_off - f.off)
            return false;
        end = f.off + f.len;
        entries.push_back(f);
    }
    out.insert(out.end(), entries.begin(), entries.end());
    return true;
}

/// Index what [from, size) of a pack adds. A sealed pack's summary lists
/// its records, so nothing past the trailer is read; otherwise the
/// records are walked. Returns where the next scan resumes; `sealed` is
/// set when the pack ends in a summary and can no longer change.
std::uint64_t scan_pack(int fd, std::uint64_t from, std::uint64_t size,
                        std::vector<Found>& found, bool& sealed) {
    std::vector<Found> summary;
    sealed = read_summary(fd, size, summary);
    if (!sealed) return scan_records(fd, from, size, found);
    for (const Found& f : summary)
        if (f.off >= from) found.push_back(f);
    return size;
}

enum class ReadStatus { ok, short_read, gone, error };

ReadStatus read_record(const std::string& path, std::uint64_t off,
                       std::uint64_t len, std::string& blob) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return errno == ENOENT ? ReadStatus::gone : ReadStatus::error;
    blob.resize(static_cast<std::size_t>(len));
    const bool whole = pread_all(fd, blob.data(), blob.size(), off);
    ::close(fd);
    return whole ? ReadStatus::ok : ReadStatus::short_read;
}

/// Validate a raw record against the key it should hold. 0 = intact
/// (payload bounds returned), 1 = structurally corrupt, 2 = intact but for
/// another key (a hash collision — not our record, not debris).
int validate_blob(const std::string& blob, std::string_view key,
                  std::size_t& payload_off, std::size_t& payload_len) {
    if (blob.size() < kHeaderSize) return 1;
    const auto* p = reinterpret_cast<const unsigned char*>(blob.data());
    if (std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0) return 1;
    const std::uint64_t key_len = get_u32(p + 8);
    const std::uint64_t pay_len = get_u64(p + 12);
    const std::uint64_t pay_hash = get_u64(p + 20);
    // Compared by subtraction: a damaged pay_len near 2^64 must not wrap
    // the sum back onto blob.size().
    if (key_len > blob.size() - kHeaderSize ||
        pay_len != blob.size() - kHeaderSize - key_len)
        return 1;
    const std::string_view stored_key(blob.data() + kHeaderSize,
                                      static_cast<std::size_t>(key_len));
    const std::string_view payload(
        blob.data() + kHeaderSize + static_cast<std::size_t>(key_len),
        static_cast<std::size_t>(pay_len));
    if (fnv1a64(payload) != pay_hash) return 1;
    if (stored_key != key) return 2;
    payload_off = kHeaderSize + static_cast<std::size_t>(key_len);
    payload_len = static_cast<std::size_t>(pay_len);
    return 0;
}

}  // namespace

Store::Store(StoreOptions opts) : opts_(std::move(opts)) {
    if (opts_.dir.empty())
        throw std::runtime_error("cas::Store: empty directory");
    if (::mkdir(opts_.dir.c_str(), 0777) != 0 && errno != EEXIST)
        throw std::runtime_error(
            format("cas::Store: cannot create %s: %s", opts_.dir.c_str(),
                   std::strerror(errno)));
    struct stat st{};
    if (::stat(opts_.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        throw std::runtime_error(
            format("cas::Store: %s is not a directory", opts_.dir.c_str()));
    auto& reg = obs::Registry::global();
    hits_ = &reg.counter("cas.hits");
    misses_ = &reg.counter("cas.misses");
    stores_ = &reg.counter("cas.stores");
    evictions_ = &reg.counter("cas.evictions");
    corrupt_ = &reg.counter("cas.corrupt");
}

Store::~Store() {
    util::MutexLock lock(mu_);
    close_writer(/*seal=*/true);
}

std::string Store::pack_path(std::uint32_t id) const {
    return opts_.dir + "/" + packs_[id].name;
}

std::uint32_t Store::pack_id(const std::string& name) {
    const auto it = pack_ids_.find(name);
    if (it != pack_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(packs_.size());
    packs_.push_back({name, 0, 0, false, false});
    pack_ids_.emplace(name, id);
    return id;
}

bool Store::open_writer() {
    // pid, wall-clock ns and a process-wide sequence make the name unique
    // across processes, restarts and the stores of one process; O_EXCL
    // catches the rest.
    static std::atomic<unsigned long long> seq{0};
    struct timespec now{};
    ::clock_gettime(CLOCK_REALTIME, &now);
    const auto ns =
        static_cast<unsigned long long>(now.tv_sec) * 1000000000ULL +
        static_cast<unsigned long long>(now.tv_nsec);
    for (int attempt = 0; attempt < 64; ++attempt) {
        const std::string name =
            format("%d-%llx-%llu.pack", static_cast<int>(::getpid()), ns,
                   seq.fetch_add(1, std::memory_order_relaxed));
        const int fd =
            ::open((opts_.dir + "/" + name).c_str(),
                   O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC, 0644);
        if (fd >= 0) {
            // Held until the pack is closed: it tells readers that more
            // records may come (see catch_up).
            ::flock(fd, LOCK_EX);
            writer_fd_ = fd;
            writer_pack_ = pack_id(name);
            summary_.clear();
            return true;
        }
        if (errno != EEXIST) return false;
    }
    return false;
}

void Store::close_writer(bool seal) {
    if (writer_fd_ < 0) return;
    if (seal && !summary_.empty()) {
        std::string block(kSummaryMagic, sizeof kSummaryMagic);
        block.append(summary_);
        put_u64(block, summary_.size() / kEntrySize);
        put_u64(block, fnv1a64(block));
        block.append(kEndMagic, sizeof kEndMagic);
        if (write_all_fd(writer_fd_, block.data(), block.size())) {
            Pack& pack = packs_[writer_pack_];
            pack.scanned += block.size();
            pack.sealed = true;
        }
    }
    ::close(writer_fd_);
    writer_fd_ = -1;
    summary_.clear();
}

bool Store::writer_unlinked() const {
    struct stat st{};
    return ::fstat(writer_fd_, &st) == 0 && st.st_nlink == 0;
}

std::vector<std::string> Store::list_packs_if_changed() {
    std::vector<std::string> names;
    struct stat st{};
    if (::stat(opts_.dir.c_str(), &st) != 0) return names;
    if (dir_current_ && st.st_mtim.tv_sec == dir_mtime_.tv_sec &&
        st.st_mtim.tv_nsec == dir_mtime_.tv_nsec)
        return names;
    struct timespec now{};
    ::clock_gettime(CLOCK_REALTIME, &now);
    if (DIR* d = ::opendir(opts_.dir.c_str())) {
        while (const dirent* e = ::readdir(d))
            if (is_pack_name(e->d_name)) names.emplace_back(e->d_name);
        ::closedir(d);
    }
    // A change within the timestamp granularity of the one we saw could
    // leave the mtime as it is: list again until the mtime is old enough.
    dir_mtime_ = st.st_mtim;
    dir_current_ = seconds_between(st.st_mtim, now) >= kDirTimestampSlackSec;
    return names;
}

void Store::catch_up() {
    util::MutexLock serial(catch_up_mu_);
    const std::vector<std::string> listed = list_packs_if_changed();
    struct Job {
        std::uint32_t id;
        std::string path;
        std::uint64_t from;
        std::uint64_t seen;
        // Filled in without the lock:
        bool gone = false;
        bool sealed = false;
        std::uint64_t size = 0;
        std::uint64_t end = 0;
        std::vector<Found> found;
    };
    std::vector<Job> jobs;
    {
        util::MutexLock lock(mu_);
        for (const std::string& name : listed) pack_id(name);
        // The store's own pack is indexed as it is written; sealed packs
        // never change.
        for (std::uint32_t id = 0; id < packs_.size(); ++id) {
            const Pack& p = packs_[id];
            if (p.gone || p.sealed || (writer_fd_ >= 0 && id == writer_pack_))
                continue;
            Job job;
            job.id = id;
            job.path = pack_path(id);
            job.from = p.scanned;
            job.seen = p.size;
            jobs.push_back(std::move(job));
        }
    }
    for (Job& job : jobs) {
        struct stat st{};
        if (::stat(job.path.c_str(), &st) != 0) {
            job.gone = errno == ENOENT;
            continue;
        }
        if (!S_ISREG(st.st_mode)) {
            job.gone = true;
            continue;
        }
        job.size = static_cast<std::uint64_t>(st.st_size);
        job.end = job.from;
        // Unchanged since the last look (a torn tail, or a writer that
        // has not appended since): nothing new to read.
        if (job.size <= job.from || job.size == job.seen) continue;
        const int fd = ::open(job.path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0) continue;
        // On the first look, ask whether a store still holds the pack for
        // appending (its writer locks it before the first append and
        // until it closes it). If none does, the writer closed it without
        // a summary or died: the pack is final once read to its size now.
        bool final = false;
        struct stat now{};
        if (job.seen == 0 && ::flock(fd, LOCK_SH | LOCK_NB) == 0 &&
            ::fstat(fd, &now) == 0) {
            job.size = static_cast<std::uint64_t>(now.st_size);
            final = true;
        }
        job.end = scan_pack(fd, job.from, job.size, job.found, job.sealed);
        job.sealed = job.sealed || final;
        ::close(fd);
    }
    std::size_t found = 0;
    for (const Job& job : jobs) found += job.found.size();
    util::MutexLock lock(mu_);
    index_.reserve(index_.size() + found);
    for (const Job& job : jobs) {
        // Catch-ups run one at a time and no other path moves a foreign
        // pack's scan offset, so only an eviction can have intervened.
        if (packs_[job.id].gone) continue;
        if (job.gone) {
            forget_pack(job.id);
            continue;
        }
        for (const Found& f : job.found)
            index_.emplace(f.key_hash, Loc{job.id, f.off, f.len});
        Pack& p = packs_[job.id];
        p.scanned = std::max(p.scanned, job.end);
        p.size = std::max(p.size, job.size);
        p.sealed = job.sealed;
    }
}

void Store::forget_pack(std::uint32_t id) {
    packs_[id].gone = true;
    for (auto it = index_.begin(); it != index_.end();)
        it = it->second.pack == id ? index_.erase(it) : std::next(it);
}

bool Store::drop(std::uint64_t key_hash, const Loc& loc) {
    const auto [first, last] = index_.equal_range(key_hash);
    for (auto it = first; it != last; ++it) {
        if (it->second.pack == loc.pack && it->second.off == loc.off) {
            index_.erase(it);
            return true;
        }
    }
    return false;
}

bool Store::put(std::string_view key, std::string_view payload) {
    obs::ScopedSpan span("cas.put");
    std::string blob;
    blob.reserve(kHeaderSize + key.size() + payload.size());
    blob.append(kMagic, sizeof kMagic);
    put_u32(blob, static_cast<std::uint32_t>(key.size()));
    put_u64(blob, static_cast<std::uint64_t>(payload.size()));
    put_u64(blob, fnv1a64(payload));
    blob.append(key);
    blob.append(payload);
    const std::uint64_t key_hash = fnv1a64(key);

    util::MutexLock lock(mu_);
    if (writer_fd_ >= 0 && writer_unlinked()) {
        // Another store's gc evicted this pack: appends to it would reach
        // no one else.
        const std::uint32_t evicted = writer_pack_;
        close_writer(/*seal=*/false);
        forget_pack(evicted);
    }
    if (writer_fd_ < 0 && !open_writer()) return false;
    if (!write_all_fd(writer_fd_, blob.data(), blob.size())) {
        // The pack may now end in a torn record: append nothing after it.
        close_writer(/*seal=*/false);
        return false;
    }
    Pack& pack = packs_[writer_pack_];
    index_.emplace(key_hash, Loc{writer_pack_, pack.scanned, blob.size()});
    put_u64(summary_, key_hash);
    put_u64(summary_, pack.scanned);
    put_u64(summary_, blob.size());
    pack.scanned += blob.size();
    stores_->add();
    return true;
}

bool Store::serve(std::string_view key, std::uint64_t key_hash,
                  std::string& payload_out) {
    struct Candidate {
        Loc loc;
        std::string path;
    };
    std::vector<Candidate> candidates;
    {
        util::MutexLock lock(mu_);
        const auto [first, last] = index_.equal_range(key_hash);
        for (auto it = first; it != last; ++it)
            candidates.push_back({it->second, pack_path(it->second.pack)});
    }
    // The latest known record first: packs in the order this store found
    // them, records in file order.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                  return a.loc.pack != b.loc.pack ? a.loc.pack > b.loc.pack
                                                  : a.loc.off > b.loc.off;
              });
    for (const Candidate& c : candidates) {
        std::string blob;
        const ReadStatus rs = read_record(c.path, c.loc.off, c.loc.len, blob);
        if (rs == ReadStatus::error) continue;
        if (rs == ReadStatus::gone) {
            // Evicted by another store's gc.
            util::MutexLock lock(mu_);
            if (!packs_[c.loc.pack].gone) forget_pack(c.loc.pack);
            continue;
        }
        std::size_t off = 0, len = 0;
        const int v =
            rs == ReadStatus::ok ? validate_blob(blob, key, off, len) : 1;
        if (v == 0) {
            payload_out.assign(blob, off, len);
            // Refresh both timestamps: gc()'s LRU order keys on mtime so
            // it works on noatime/relatime mounts too.
            ::utimensat(AT_FDCWD, c.path.c_str(), nullptr, 0);
            return true;
        }
        if (v == 2) continue;  // another key's intact record
        util::MutexLock lock(mu_);
        if (drop(key_hash, c.loc)) corrupt_->add();
    }
    return false;
}

bool Store::get(std::string_view key, std::string& payload_out) {
    obs::ScopedSpan span("cas.get");
    const std::uint64_t key_hash = fnv1a64(key);
    // Try the indexed records first; when none serves, catch up on what
    // other writers appended since and try once more.
    bool hit = serve(key, key_hash, payload_out);
    if (!hit) {
        catch_up();
        hit = serve(key, key_hash, payload_out);
    }
    (hit ? hits_ : misses_)->add();
    return hit;
}

StoreStats Store::stats() const {
    StoreStats s;
    DIR* d = ::opendir(opts_.dir.c_str());
    if (!d) return s;
    std::unordered_map<std::uint64_t, std::uint64_t> live;
    std::vector<Found> found;
    while (const dirent* e = ::readdir(d)) {
        const std::string_view name(e->d_name);
        struct stat st{};
        const std::string path = opts_.dir + "/" + std::string(name);
        if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
        const auto size = static_cast<std::uint64_t>(st.st_size);
        if (is_tmp_file_name(name) || is_object_file_name(name)) {
            ++s.debris_files;
            s.debris_bytes += size;
        } else if (is_pack_name(name)) {
            ++s.packs;
            s.pack_bytes += size;
            const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
            if (fd < 0) continue;
            found.clear();
            bool sealed = false;
            scan_pack(fd, 0, size, found, sealed);
            ::close(fd);
            // A later record of a key supersedes the one counted so far.
            for (const Found& f : found) {
                const auto [it, first] = live.emplace(f.key_hash, f.len);
                if (!first) {
                    s.object_bytes -= it->second;
                    it->second = f.len;
                }
                s.object_bytes += f.len;
            }
        }
    }
    ::closedir(d);
    s.objects = live.size();
    return s;
}

GcResult Store::gc() {
    GcResult r;
    struct Entry {
        std::string name;
        std::uint64_t bytes;
        struct timespec mtime;
    };
    std::vector<Entry> packs;

    struct timespec now{};
    ::clock_gettime(CLOCK_REALTIME, &now);

    DIR* d = ::opendir(opts_.dir.c_str());
    if (!d) return r;
    while (const dirent* e = ::readdir(d)) {
        const std::string name(e->d_name);
        const std::string path = opts_.dir + "/" + name;
        struct stat st{};
        if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
        if (is_tmp_file_name(name)) {
            // Old-layout writers may still be running: spare fresh tmp
            // files. Their loose objects are never read, so they go now.
            if (seconds_between(st.st_mtim, now) >= opts_.tmp_min_age_sec &&
                ::unlink(path.c_str()) == 0)
                ++r.removed_debris;
        } else if (is_object_file_name(name)) {
            if (::unlink(path.c_str()) == 0) ++r.removed_debris;
        } else if (is_pack_name(name)) {
            packs.push_back(
                {name, static_cast<std::uint64_t>(st.st_size), st.st_mtim});
        }
    }
    ::closedir(d);

    if (opts_.max_bytes == 0) return r;
    std::uint64_t total = 0;
    for (const Entry& p : packs) total += p.bytes;
    if (total <= opts_.max_bytes) return r;

    // Oldest first; the name tiebreak makes eviction order deterministic
    // on filesystems with coarse timestamps.
    std::sort(packs.begin(), packs.end(), [](const Entry& a, const Entry& b) {
        if (a.mtime.tv_sec != b.mtime.tv_sec)
            return a.mtime.tv_sec < b.mtime.tv_sec;
        if (a.mtime.tv_nsec != b.mtime.tv_nsec)
            return a.mtime.tv_nsec < b.mtime.tv_nsec;
        return a.name < b.name;
    });
    util::MutexLock lock(mu_);
    const std::string own =
        writer_fd_ >= 0 ? packs_[writer_pack_].name : std::string();
    for (const Entry& p : packs) {
        if (total <= opts_.max_bytes) break;
        if (p.name == own) continue;
        // unlink only removes the name: a reader that already read a
        // record is unaffected.
        if (::unlink((opts_.dir + "/" + p.name).c_str()) != 0) continue;
        total -= p.bytes;
        ++r.evicted_packs;
        r.evicted_bytes += p.bytes;
        evictions_->add();
        const auto it = pack_ids_.find(p.name);
        if (it != pack_ids_.end()) forget_pack(it->second);
    }
    return r;
}

}  // namespace sunfloor::cas
