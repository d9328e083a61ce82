// Content-addressed artifact store: round-trip fidelity, crash-safety
// (torn tails, bit flips, bad magic, key-echo mismatches), catch-up on
// other writers' packs, old-layout debris, size-bounded LRU eviction of
// whole packs, the bit-exact artifact codec, session spill/load
// transparency and multi-thread/multi-process sharing of one directory.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cas_test_util.h"
#include "sunfloor/cas/codec.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/core/synthesizer.h"
#include "sunfloor/obs/metrics.h"
#include "sunfloor/pipeline/session.h"
#include "sunfloor/spec/benchmarks.h"
#include "sunfloor/util/strings.h"

namespace sunfloor {
namespace {

using cas_test::list_dir;
using cas_test::pack_paths;
using cas_test::read_file;
using cas_test::Record;
using cas_test::records_of;
using cas_test::summary_of;
using cas_test::TempDir;
using cas_test::write_file;

cas::Store open_store(const std::string& dir, std::uint64_t max_bytes = 0) {
    return cas::Store(cas::StoreOptions{dir, max_bytes, 60.0});
}

long long counter(const char* name) {
    return obs::Registry::global().counter(name).value();
}

void set_mtime(const std::string& path, std::time_t sec) {
    timespec times[2] = {{sec, 0}, {sec, 0}};
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

bool file_exists(const std::string& path) {
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

/// `prefix` followed by the decimal `i` (built by append: gcc 12 reports
/// a false -Wrestrict overlap for `"literal" + std::string`).
std::string numbered(const char* prefix, int i) {
    return std::string(prefix).append(std::to_string(i));
}

/// The record of `key` in `pack_path` (the test fails when there is none).
Record record_of(const std::string& pack_path, const std::string& key) {
    for (const Record& r : records_of(read_file(pack_path)))
        if (r.key == key) return r;
    ADD_FAILURE() << "no record of " << key << " in " << pack_path;
    return Record();
}

/// The one pack in `dir` (the test fails unless there is exactly one).
std::string only_pack(const std::string& dir) {
    const std::vector<std::string> packs = pack_paths(dir);
    EXPECT_EQ(packs.size(), 1u) << dir;
    return packs.empty() ? std::string() : packs.front();
}

/// Put `key` -> `payload` in a store of its own, so it gets its own pack;
/// returns that pack's path.
std::string put_in_own_pack(const std::string& dir, const std::string& key,
                            const std::string& payload) {
    const std::vector<std::string> before = pack_paths(dir);
    {
        cas::Store store = open_store(dir);
        EXPECT_TRUE(store.put(key, payload));
    }
    for (const std::string& p : pack_paths(dir))
        if (std::find(before.begin(), before.end(), p) == before.end())
            return p;
    ADD_FAILURE() << "no new pack for " << key;
    return std::string();
}

SynthesisConfig fast_cfg() {
    SynthesisConfig cfg;
    cfg.partition.num_starts = 4;
    cfg.run_floorplan = false;
    cfg.max_switches = 6;
    return cfg;
}

void expect_same_results(const SynthesisResult& a, const SynthesisResult& b) {
    EXPECT_EQ(a.phase_used, b.phase_used);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].valid, b.points[i].valid);
        EXPECT_EQ(a.points[i].fail_reason, b.points[i].fail_reason);
        EXPECT_EQ(a.points[i].switch_count, b.points[i].switch_count);
        EXPECT_EQ(a.points[i].topo.num_links(), b.points[i].topo.num_links());
        EXPECT_EQ(std::memcmp(&a.points[i].report.avg_latency_cycles,
                              &b.points[i].report.avg_latency_cycles,
                              sizeof(double)),
                  0);
        const double pa = a.points[i].report.power.total_mw();
        const double pb = b.points[i].report.power.total_mw();
        EXPECT_EQ(std::memcmp(&pa, &pb, sizeof(double)), 0);
    }
}

// ------------------------------------------------------------- store core

TEST(CasStore, PutGetRoundTripsArbitraryBytes) {
    TempDir dir;
    cas::Store store = open_store(dir.path);
    std::string payload = "binary\0payload\xff\x01";
    payload.push_back('\0');
    ASSERT_TRUE(store.put("some|stage|key", payload));
    std::string got;
    ASSERT_TRUE(store.get("some|stage|key", got));
    EXPECT_EQ(got, payload);

    // Overwrite wins; the old payload is gone.
    ASSERT_TRUE(store.put("some|stage|key", "v2"));
    ASSERT_TRUE(store.get("some|stage|key", got));
    EXPECT_EQ(got, "v2");
    // ...also for a fresh store reading the same pack.
    ASSERT_TRUE(open_store(dir.path).get("some|stage|key", got));
    EXPECT_EQ(got, "v2");

    // Absent keys miss without touching the hit counter.
    const long long hits = counter("cas.hits");
    const long long misses = counter("cas.misses");
    EXPECT_FALSE(store.get("never-stored", got));
    EXPECT_EQ(counter("cas.hits"), hits);
    EXPECT_EQ(counter("cas.misses"), misses + 1);

    const cas::StoreStats st = store.stats();
    EXPECT_EQ(st.objects, 1u);
    EXPECT_EQ(st.object_bytes, 28u + 14u + 2u);  // the live record
    EXPECT_EQ(st.packs, 1u);
    EXPECT_EQ(st.pack_bytes, 2 * 28u + 2 * 14u + payload.size() + 2u);
    EXPECT_EQ(st.debris_files, 0u);
}

TEST(CasStore, EachWritingStoreAppendsToOnePackOfItsOwn) {
    TempDir dir;
    {
        cas::Store reader = open_store(dir.path);
        std::string got;
        EXPECT_FALSE(reader.get("k", got));
        EXPECT_TRUE(list_dir(dir.path).empty());  // a reader creates nothing
    }
    cas::Store a = open_store(dir.path);
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(a.put(numbered("a", i), std::string(50, 'a')));
    const std::string pack_a = only_pack(dir.path);
    std::vector<Record> recs = records_of(read_file(pack_a));
    ASSERT_EQ(recs.size(), 10u);
    for (std::size_t i = 0; i < recs.size(); ++i)
        EXPECT_EQ(recs[i].key, numbered("a", static_cast<int>(i)));

    cas::Store b = open_store(dir.path);
    ASSERT_TRUE(b.put("b0", "b"));
    EXPECT_EQ(pack_paths(dir.path).size(), 2u);
    EXPECT_EQ(list_dir(dir.path).size(), 2u);  // nothing but the packs
    EXPECT_EQ(read_file(pack_a).size(), recs.back().off + recs.back().len);
}

TEST(CasStore, CatchUpSeesRecordsOtherWritersAppendLater) {
    TempDir dir;
    cas::Store reader = open_store(dir.path);
    cas::Store writer = open_store(dir.path);
    std::string got;
    EXPECT_FALSE(reader.get("late", got));
    ASSERT_TRUE(writer.put("late", "first"));
    // The reader indexed nothing of the new pack yet: its miss re-lists.
    ASSERT_TRUE(reader.get("late", got));
    EXPECT_EQ(got, "first");
    // Appends to a pack it already scanned are picked up from where the
    // last scan stopped.
    ASSERT_TRUE(writer.put("later", "second"));
    ASSERT_TRUE(reader.get("later", got));
    EXPECT_EQ(got, "second");

    // A directory listed long after its last change is trusted until its
    // mtime moves, and a writer's new pack moves it.
    // lint:allow(nondet-time) back-dating the directory mtime
    set_mtime(dir.path, std::time(nullptr) - 100);
    cas::Store settled = open_store(dir.path);
    EXPECT_FALSE(settled.get("newest", got));
    cas::Store newcomer = open_store(dir.path);
    ASSERT_TRUE(newcomer.put("newest", "third"));
    ASSERT_TRUE(settled.get("newest", got));
    EXPECT_EQ(got, "third");
}

TEST(CasStore, APackNoWriterHoldsIsReadOnceAndThenFinal) {
    // A pack without a summary whose writer is gone (here: records copied
    // into a new file, as a crashed writer leaves them) is read once; a
    // store never looks at it again. A live writer's pack is followed.
    TempDir dir;
    TempDir elsewhere;
    std::string first;
    std::string second;
    {
        cas::Store source = open_store(elsewhere.path);
        ASSERT_TRUE(source.put("orphan-1", "one"));
        ASSERT_TRUE(source.put("orphan-2", "two"));
        const std::string bytes = read_file(only_pack(elsewhere.path));
        const std::vector<Record> recs = records_of(bytes);
        ASSERT_EQ(recs.size(), 2u);
        first = bytes.substr(recs[0].off, recs[0].len);
        second = bytes.substr(recs[1].off, recs[1].len);
    }
    const std::string orphan = dir.path + "/1-dead-0.pack";
    write_file(orphan, first);
    cas::Store live = open_store(dir.path);
    ASSERT_TRUE(live.put("live-1", "three"));

    cas::Store reader = open_store(dir.path);
    std::string got;
    ASSERT_TRUE(reader.get("orphan-1", got));
    EXPECT_EQ(got, "one");
    ASSERT_TRUE(reader.get("live-1", got));
    // Bytes that appear behind the orphan's records later are not read by
    // a store that already found it final; the live pack is followed.
    write_file(orphan, first + second);
    ASSERT_TRUE(live.put("live-2", "four"));
    EXPECT_FALSE(reader.get("orphan-2", got));
    ASSERT_TRUE(reader.get("live-2", got));
    EXPECT_EQ(got, "four");
    // A store that finds the pack afresh reads all of it.
    ASSERT_TRUE(open_store(dir.path).get("orphan-2", got));
    EXPECT_EQ(got, "two");
}

TEST(CasStore, AClosedPackIsSealedAndIndexedFromItsSummary) {
    TempDir dir;
    constexpr int kKeys = 20;
    {
        cas::Store store = open_store(dir.path);
        for (int i = 0; i < kKeys; ++i)
            ASSERT_TRUE(store.put(numbered("s", i), numbered("payload-", i)));
        // While its store writes it, a pack is nothing but records.
        const std::string open_bytes = read_file(only_pack(dir.path));
        EXPECT_FALSE(summary_of(open_bytes).has_value());
        EXPECT_EQ(records_of(open_bytes).size(), std::size_t{kKeys});
    }
    // Closing it appended a summary listing every record.
    const std::string pack = only_pack(dir.path);
    const std::string bytes = read_file(pack);
    const std::vector<Record> recs = records_of(bytes);
    ASSERT_EQ(recs.size(), std::size_t{kKeys});
    const auto summary = summary_of(bytes);
    ASSERT_TRUE(summary.has_value());
    ASSERT_EQ(summary->size(), recs.size());
    std::uint64_t record_bytes = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ((*summary)[i].key_hash, cas::fnv1a64(recs[i].key)) << i;
        EXPECT_EQ((*summary)[i].off, recs[i].off) << i;
        EXPECT_EQ((*summary)[i].len, recs[i].len) << i;
        record_bytes += recs[i].len;
    }
    EXPECT_EQ(cas_test::summary_start(bytes, recs.size()), record_bytes);

    const auto serves_all = [&](const char* what) {
        cas::Store fresh = open_store(dir.path);
        for (int i = 0; i < kKeys; ++i) {
            std::string got;
            ASSERT_TRUE(fresh.get(numbered("s", i), got)) << what << " " << i;
            EXPECT_EQ(got, numbered("payload-", i)) << what;
        }
        const cas::StoreStats st = fresh.stats();
        EXPECT_EQ(st.objects, std::uint64_t{kKeys}) << what;
        EXPECT_EQ(st.object_bytes, record_bytes) << what;
    };
    const long long corrupt = counter("cas.corrupt");
    serves_all("sealed");
    // A summary that fails its checksum is ignored: the records are walked.
    std::string damaged = bytes;
    const std::size_t entry = cas_test::summary_start(bytes, recs.size()) + 8;
    damaged[entry + 3] = static_cast<char>(damaged[entry + 3] ^ 0x10);
    write_file(pack, damaged);
    serves_all("bad checksum");
    // So is a summary whose trailer was cut off.
    write_file(pack, bytes.substr(0, bytes.size() - 1));
    serves_all("cut trailer");
    EXPECT_EQ(counter("cas.corrupt"), corrupt);

    // A summary that checks out but lies — two entries' key hashes
    // swapped, checksum recomputed — sends each of the two keys to the
    // other's record; the key echo turns both into misses, never into
    // the other key's bytes.
    std::string lying = bytes;
    for (std::size_t b = 0; b < 8; ++b)
        std::swap(lying[entry + b], lying[entry + 24 + b]);
    const std::size_t start = cas_test::summary_start(bytes, recs.size());
    cas_test::put_le(lying, bytes.size() - 16, 8,
                     cas::fnv1a64(std::string_view(lying).substr(
                         start, bytes.size() - 16 - start)));
    ASSERT_TRUE(summary_of(lying).has_value());
    write_file(pack, lying);
    cas::Store misled = open_store(dir.path);
    std::string got;
    EXPECT_FALSE(misled.get("s0", got));
    EXPECT_FALSE(misled.get("s1", got));
    for (int i = 2; i < kKeys; ++i) {
        ASSERT_TRUE(misled.get(numbered("s", i), got)) << i;
        EXPECT_EQ(got, numbered("payload-", i));
    }
    EXPECT_EQ(counter("cas.corrupt"), corrupt);
}

TEST(CasStore, TornTailIsAMissAndNeverIndexed) {
    const std::string key = "trunc-key";
    const std::string payload(500, 'x');
    for (const std::size_t keep : {std::size_t{0}, std::size_t{10},
                                   std::size_t{27}, std::size_t{200}}) {
        TempDir dir;
        cas::Store writer = open_store(dir.path);
        ASSERT_TRUE(writer.put("before", "intact"));
        ASSERT_TRUE(writer.put(key, payload));
        const std::string pack = only_pack(dir.path);
        const Record rec = record_of(pack, key);
        ASSERT_GT(rec.len, keep);
        // A writer that died mid-append leaves its last record torn.
        write_file(pack, read_file(pack).substr(0, rec.off + keep));

        const long long corrupt = counter("cas.corrupt");
        std::string got;
        cas::Store fresh = open_store(dir.path);
        EXPECT_FALSE(fresh.get(key, got)) << "keep=" << keep;
        // The scan stops at the torn tail: nothing there is read as a
        // record, so nothing is counted as corrupt...
        EXPECT_EQ(counter("cas.corrupt"), corrupt);
        // ...and the intact record before it is served.
        ASSERT_TRUE(fresh.get("before", got));
        EXPECT_EQ(got, "intact");
        EXPECT_EQ(fresh.stats().objects, 1u);

        // The writer had indexed the record before it was cut short: its
        // read comes up short, which is corruption.
        EXPECT_FALSE(writer.get(key, got));
        EXPECT_EQ(counter("cas.corrupt"), corrupt + 1);

        // Recompute-and-store works again afterwards, for this store and
        // for the next one.
        ASSERT_TRUE(fresh.put(key, payload));
        ASSERT_TRUE(fresh.get(key, got));
        EXPECT_EQ(got, payload);
        ASSERT_TRUE(open_store(dir.path).get(key, got));
        EXPECT_EQ(got, payload);
    }
}

TEST(CasStore, FailedAppendAbandonsThePackForAFreshOne) {
    // A put whose append fails part-way (here: the file-size limit cuts
    // it short) leaves a torn tail; the next put must go to a new pack so
    // no record ever sits behind the torn one.
    TempDir dir;
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: no gtest machinery — report through the exit code.
        ::signal(SIGXFSZ, SIG_IGN);
        cas::Store store = open_store(dir.path);
        if (!store.put("before", std::string(300, 'a'))) ::_exit(2);
        rlimit old{};
        if (::getrlimit(RLIMIT_FSIZE, &old) != 0) ::_exit(3);
        rlimit cut = old;
        cut.rlim_cur = static_cast<rlim_t>(
            read_file(only_pack(dir.path)).size() + 100);
        if (::setrlimit(RLIMIT_FSIZE, &cut) != 0) ::_exit(3);
        if (store.put("torn", std::string(1000, 't'))) ::_exit(4);
        if (::setrlimit(RLIMIT_FSIZE, &old) != 0) ::_exit(3);
        if (!store.put("after", std::string(300, 'b'))) ::_exit(5);
        std::string got;
        if (!store.get("before", got) || !store.get("after", got)) ::_exit(6);
        if (store.get("torn", got)) ::_exit(7);
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    const std::vector<std::string> packs = pack_paths(dir.path);
    ASSERT_EQ(packs.size(), 2u);
    std::string torn_pack;
    for (const std::string& p : packs) {
        const std::vector<Record> recs = records_of(read_file(p));
        ASSERT_EQ(recs.size(), 1u) << p;
        if (recs[0].key == "before") {
            torn_pack = p;
        } else {
            EXPECT_EQ(recs[0].key, "after");
        }
    }
    ASSERT_FALSE(torn_pack.empty());
    const Record before = record_of(torn_pack, "before");
    EXPECT_EQ(read_file(torn_pack).size(), before.len + 100);

    const long long corrupt = counter("cas.corrupt");
    cas::Store fresh = open_store(dir.path);
    std::string got;
    ASSERT_TRUE(fresh.get("before", got));
    EXPECT_EQ(got, std::string(300, 'a'));
    ASSERT_TRUE(fresh.get("after", got));
    EXPECT_EQ(got, std::string(300, 'b'));
    EXPECT_FALSE(fresh.get("torn", got));
    EXPECT_EQ(counter("cas.corrupt"), corrupt);
}

TEST(CasStore, BitFlippedPayloadIsAMissAndDropped) {
    TempDir dir;
    {
        cas::Store store = open_store(dir.path);
        ASSERT_TRUE(store.put("left", std::string(300, 'l')));
        ASSERT_TRUE(store.put("flip-key", std::string(300, 'y')));
        ASSERT_TRUE(store.put("right", std::string(300, 'r')));
    }
    const std::string pack = only_pack(dir.path);
    const Record rec = record_of(pack, "flip-key");
    std::string bytes = read_file(pack);
    const std::size_t last = rec.off + rec.len - 1;
    bytes[last] = static_cast<char>(bytes[last] ^ 0x40);
    write_file(pack, bytes);

    cas::Store store = open_store(dir.path);
    const long long corrupt = counter("cas.corrupt");
    std::string got;
    EXPECT_FALSE(store.get("flip-key", got));
    EXPECT_EQ(counter("cas.corrupt"), corrupt + 1);
    // Dropped from the index: the next get is a plain miss.
    EXPECT_FALSE(store.get("flip-key", got));
    EXPECT_EQ(counter("cas.corrupt"), corrupt + 1);
    // The records around it are untouched.
    ASSERT_TRUE(store.get("left", got));
    EXPECT_EQ(got, std::string(300, 'l'));
    ASSERT_TRUE(store.get("right", got));
    EXPECT_EQ(got, std::string(300, 'r'));
}

TEST(CasStore, BadMagicIsAMissAndEndsTheScan) {
    TempDir dir;
    cas::Store writer = open_store(dir.path);
    ASSERT_TRUE(writer.put("first", "payload-1"));
    ASSERT_TRUE(writer.put("magic-key", "payload"));
    ASSERT_TRUE(writer.put("after", "payload-3"));
    const std::string pack = only_pack(dir.path);
    const Record rec = record_of(pack, "magic-key");
    std::string bytes = read_file(pack);
    bytes[rec.off] = 'X';
    write_file(pack, bytes);

    std::string got;
    // A store that already indexed the record finds it corrupt.
    const long long corrupt = counter("cas.corrupt");
    EXPECT_FALSE(writer.get("magic-key", got));
    EXPECT_EQ(counter("cas.corrupt"), corrupt + 1);
    // A fresh scan stops at the bad magic: the record and everything
    // behind it are misses, everything before it is served.
    cas::Store fresh = open_store(dir.path);
    EXPECT_FALSE(fresh.get("magic-key", got));
    EXPECT_FALSE(fresh.get("after", got));
    ASSERT_TRUE(fresh.get("first", got));
    EXPECT_EQ(got, "payload-1");
    EXPECT_EQ(counter("cas.corrupt"), corrupt + 1);
}

TEST(CasStore, KeyEchoMismatchIsAMissButNotDebris) {
    // An index entry whose record echoes another key (an fnv collision,
    // or a record rewritten under the store's feet) presents an *intact*
    // record for the wrong key: the key echo catches it. It is a miss —
    // the payload belongs to another key — but not corruption, so the
    // store must not drop the other key's record.
    TempDir dir;
    cas::Store store = open_store(dir.path);
    ASSERT_TRUE(store.put("owner-key", "owner-payload"));
    const std::string pack = only_pack(dir.path);
    const Record rec = record_of(pack, "owner-key");
    std::string bytes = read_file(pack);
    bytes.replace(rec.off + cas_test::kRecordHeader, 9, "other-key");
    write_file(pack, bytes);

    const long long corrupt = counter("cas.corrupt");
    std::string got;
    EXPECT_FALSE(store.get("owner-key", got));
    EXPECT_FALSE(store.get("owner-key", got));
    EXPECT_EQ(counter("cas.corrupt"), corrupt);  // not counted as corrupt
    // The record itself is intact and served under the key it echoes.
    ASSERT_TRUE(open_store(dir.path).get("other-key", got));
    EXPECT_EQ(got, "owner-payload");
}

TEST(CasStore, DuplicateRecordsServeAnIntactOneWhateverTheScanOrder) {
    // Two writers that raced on a key leave a record each. Damage either
    // one: a fresh store must still serve the other.
    for (int damaged = 0; damaged < 2; ++damaged) {
        TempDir dir;
        const std::string packs[2] = {
            put_in_own_pack(dir.path, "dup", "same-bytes"),
            put_in_own_pack(dir.path, "dup", "same-bytes")};
        const std::string& victim = packs[damaged];
        const Record rec = record_of(victim, "dup");
        std::string bytes = read_file(victim);
        const std::size_t last = rec.off + rec.len - 1;
        bytes[last] = static_cast<char>(bytes[last] ^ 0x01);
        write_file(victim, bytes);

        cas::Store store = open_store(dir.path);
        std::string got;
        ASSERT_TRUE(store.get("dup", got)) << "damaged pack " << damaged;
        EXPECT_EQ(got, "same-bytes");
        EXPECT_EQ(store.stats().objects, 1u);
    }
}

TEST(CasStore, OldLayoutDebrisIsAMissAndGcRemovesIt) {
    TempDir dir;
    TempDir elsewhere;
    // The file-per-object layout stored each blob — the same bytes as a
    // pack record — as <dir>/<16-hex fnv1a64 of key>.
    {
        cas::Store other = open_store(elsewhere.path);
        ASSERT_TRUE(other.put("loose-key", "loose-payload"));
    }
    const std::string elsewhere_pack = only_pack(elsewhere.path);
    const Record loose_rec = record_of(elsewhere_pack, "loose-key");
    const std::string loose_blob =
        read_file(elsewhere_pack).substr(loose_rec.off, loose_rec.len);
    const std::string loose = dir.path + "/" +
                              format("%016llx", static_cast<unsigned long long>(
                                                    cas::fnv1a64("loose-key")));
    write_file(loose, loose_blob);

    cas::Store store = open_store(dir.path);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(store.put(numbered("kept", i),
                              numbered("kept-payload-", i)));
    // A crashed old-layout writer's leftovers (old mtime) and a live
    // one's tmp file (fresh mtime) side by side.
    const std::string stale = dir.path + "/00000000deadbeef.tmp.1234.7";
    const std::string fresh = dir.path + "/00000000deadbeef.tmp.1234.8";
    write_file(stale, loose_blob.substr(0, 20));
    write_file(fresh, loose_blob.substr(0, 20));
    // lint:allow(nondet-time) back-dating a file mtime to exercise GC age
    set_mtime(stale, std::time(nullptr) - 3600);

    // Loose objects are never read: a clean miss, not corruption.
    const long long corrupt = counter("cas.corrupt");
    std::string got;
    EXPECT_FALSE(open_store(dir.path).get("loose-key", got));
    EXPECT_EQ(counter("cas.corrupt"), corrupt);

    cas::StoreStats st = store.stats();
    EXPECT_EQ(st.objects, 5u);
    EXPECT_EQ(st.debris_files, 3u);
    EXPECT_EQ(st.debris_bytes, loose_blob.size() + 40u);

    const cas::GcResult r = store.gc();
    EXPECT_EQ(r.removed_debris, 2u);
    EXPECT_EQ(r.evicted_packs, 0u);
    EXPECT_FALSE(file_exists(loose));
    EXPECT_FALSE(file_exists(stale));
    EXPECT_TRUE(file_exists(fresh));
    st = store.stats();
    EXPECT_EQ(st.debris_files, 1u);
    EXPECT_EQ(st.objects, 5u);
    cas::Store after = open_store(dir.path);
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(after.get(numbered("kept", i), got)) << i;
        EXPECT_EQ(got, numbered("kept-payload-", i));
    }
}

TEST(CasStore, GcEvictsLeastRecentlyUsedPacksUntilUnderTheBound) {
    TempDir dir;
    const std::string payload(1000, 'z');
    const std::vector<std::string> keys = {"a", "b", "c", "d"};
    std::vector<std::string> packs;
    for (const std::string& k : keys)
        packs.push_back(put_in_own_pack(dir.path, k, payload));
    const std::uint64_t per_pack = open_store(dir.path).stats().pack_bytes /
                                   keys.size();
    // Pin the recency order explicitly (mtime drives eviction): "a"'s pack
    // oldest, "d"'s newest.
    // lint:allow(nondet-time) back-dating file mtimes to pin GC recency
    const std::time_t now = std::time(nullptr);
    for (std::size_t i = 0; i < keys.size(); ++i)
        set_mtime(packs[i], now - 1000 + static_cast<std::time_t>(100 * i));

    // Bound to two packs: the two oldest must go, newest survive.
    cas::Store bounded = open_store(dir.path, 2 * per_pack);
    const long long evictions = counter("cas.evictions");
    const cas::GcResult r = bounded.gc();
    EXPECT_EQ(r.evicted_packs, 2u);
    EXPECT_EQ(r.evicted_bytes, 2 * per_pack);
    EXPECT_EQ(counter("cas.evictions"), evictions + 2);
    cas::Store after = open_store(dir.path);
    std::string got;
    EXPECT_FALSE(after.get("a", got));
    EXPECT_FALSE(after.get("b", got));
    EXPECT_TRUE(after.get("c", got));
    EXPECT_TRUE(after.get("d", got));
    // Already under the bound: a second gc is a no-op.
    EXPECT_EQ(bounded.gc().evicted_packs, 0u);
}

TEST(CasStore, GcNeverEvictsTheCallersOpenPack) {
    TempDir dir;
    const std::string payload(1000, 'z');
    const std::string other = put_in_own_pack(dir.path, "other", payload);
    cas::Store store = open_store(dir.path, 1);
    ASSERT_TRUE(store.put("mine", payload));
    std::string own;
    for (const std::string& p : pack_paths(dir.path))
        if (p != other) own = p;
    ASSERT_FALSE(own.empty());
    std::string got;
    ASSERT_TRUE(store.get("other", got));  // now in the caller's index
    // The caller's pack is the least recently used, yet it stays.
    // lint:allow(nondet-time) back-dating file mtimes to pin GC recency
    const std::time_t now = std::time(nullptr);
    set_mtime(own, now - 1000);
    set_mtime(other, now - 500);

    const cas::GcResult r = store.gc();
    EXPECT_EQ(r.evicted_packs, 1u);
    EXPECT_FALSE(file_exists(other));
    EXPECT_TRUE(file_exists(own));
    const long long corrupt = counter("cas.corrupt");
    EXPECT_TRUE(store.get("mine", got));
    EXPECT_FALSE(store.get("other", got));
    EXPECT_EQ(counter("cas.corrupt"), corrupt);
    // The evicted pack left the caller's index too: a put and get after
    // it keep working.
    ASSERT_TRUE(store.put("other", payload));
    EXPECT_TRUE(store.get("other", got));
}

TEST(CasStore, AWriterWhosePackAnotherStoreEvictedMovesToAFreshPack) {
    TempDir dir;
    cas::Store writer = open_store(dir.path);
    ASSERT_TRUE(writer.put("before", std::string(1000, 'a')));
    const std::string evicted = only_pack(dir.path);
    // Another store — in practice `sunfloor_cli cas gc` in another
    // process — evicts the pack the writer still has open.
    cas::Store collector = open_store(dir.path, 1);
    ASSERT_EQ(collector.gc().evicted_packs, 1u);
    ASSERT_FALSE(file_exists(evicted));

    // The writer's next put lands in a new pack that every store sees.
    ASSERT_TRUE(writer.put("after", "payload-after"));
    const std::string moved_to = only_pack(dir.path);
    EXPECT_NE(moved_to, evicted);
    std::string got;
    ASSERT_TRUE(open_store(dir.path).get("after", got));
    EXPECT_EQ(got, "payload-after");
    // The evicted record is a clean miss for the writer as well.
    const long long corrupt = counter("cas.corrupt");
    EXPECT_FALSE(writer.get("before", got));
    EXPECT_EQ(counter("cas.corrupt"), corrupt);
    ASSERT_TRUE(writer.get("after", got));
    EXPECT_EQ(got, "payload-after");
}

TEST(CasStore, SuccessfulLoadRefreshesTheEvictionOrder) {
    TempDir dir;
    const std::string payload(1000, 'z');
    const std::string old_pack = put_in_own_pack(dir.path, "old", payload);
    const std::string new_pack = put_in_own_pack(dir.path, "new", payload);
    // lint:allow(nondet-time) back-dating file mtimes to pin GC recency
    const std::time_t now = std::time(nullptr);
    set_mtime(old_pack, now - 1000);
    set_mtime(new_pack, now - 500);

    // Loading "old" bumps its pack ahead of "new"'s in the LRU order.
    std::string got;
    ASSERT_TRUE(open_store(dir.path).get("old", got));

    cas::Store bounded =
        open_store(dir.path, open_store(dir.path).stats().pack_bytes / 2);
    ASSERT_EQ(bounded.gc().evicted_packs, 1u);
    cas::Store after = open_store(dir.path);
    EXPECT_TRUE(after.get("old", got));
    EXPECT_FALSE(after.get("new", got));
}

TEST(CasStore, ThreadsShareOneStore) {
    TempDir dir;
    cas::Store store = open_store(dir.path);
    constexpr int kThreads = 4;
    constexpr int kKeys = 40;
    const auto payload_of = [](int i) {
        return numbered("payload-", i) +
               std::string(static_cast<std::size_t>(50 + i), 'p');
    };
    std::vector<int> wrong(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 3; ++round) {
                for (int i = 0; i < kKeys; ++i) {
                    const std::string key = numbered("k", i);
                    std::string got;
                    if ((i + t + round) % 3 == 0) {
                        if (!store.put(key, payload_of(i))) ++wrong[t];
                    } else if (store.get(key, got) && got != payload_of(i)) {
                        ++wrong[t];
                    }
                }
            }
        });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << t;
    EXPECT_EQ(pack_paths(dir.path).size(), 1u);
    cas::Store fresh = open_store(dir.path);
    for (int i = 0; i < kKeys; ++i) {
        std::string got;
        ASSERT_TRUE(fresh.get(numbered("k", i), got)) << i;
        EXPECT_EQ(got, payload_of(i));
    }
}

// ----------------------------------------------------------------- codec

TEST(CasCodec, ArtifactsRoundTripBitExactly) {
    const DesignSpec spec = make_benchmark("D_36_4");
    SynthesisConfig cfg = fast_cfg();
    cfg.run_floorplan = true;  // exercise the die-area vector too

    pipeline::SynthesisSession session(spec);
    const RngState rng_in = Rng(cfg.seed).state();
    // Find a switch count whose assignment routes (the sweep's job); the
    // codec must handle whichever artifacts fall out.
    std::shared_ptr<const pipeline::PartitionArtifact> part;
    std::unique_ptr<pipeline::AssignmentArtifact> assign_holder;
    std::unique_ptr<pipeline::RoutingArtifact> routed_holder;
    for (int k = 2; k <= cfg.max_switches && !routed_holder; ++k) {
        part = session.partition(pipeline::PartitionGraphId::pg(), k, cfg,
                                 cfg.partition, rng_in);
        auto a = std::make_unique<pipeline::AssignmentArtifact>(
            pipeline::phase1_assignment(*part, spec.cores));
        auto r = std::make_unique<pipeline::RoutingArtifact>(
            pipeline::route_assignment(spec, cfg, a->assign));
        if (!r->ok) continue;
        assign_holder = std::move(a);
        routed_holder = std::move(r);
    }
    ASSERT_TRUE(routed_holder) << "no switch count routed";
    const pipeline::AssignmentArtifact& assign = *assign_holder;
    const pipeline::RoutingArtifact& routed = *routed_holder;
    Rng prng(cfg.seed);
    const pipeline::PlacementArtifact placed =
        pipeline::place_design(routed, spec, cfg, prng);
    const pipeline::EvaluatedDesign evaluated(
        pipeline::evaluate_design(placed, spec, cfg));

    // encode(decode(encode(x))) == encode(x), byte for byte, for every
    // artifact kind — the property the CAS spill path rests on.
    {
        const std::string blob = cas::encode_partition(*part);
        EXPECT_EQ(blob, cas::encode_partition(*part));  // deterministic
        const auto back = cas::decode_partition(blob);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(cas::encode_partition(*back), blob);
        EXPECT_EQ(back->block, part->block);
        EXPECT_EQ(back->k, part->k);
        EXPECT_EQ(back->rng_after, part->rng_after);
    }
    {
        const std::string blob = cas::encode_assignment(assign);
        const auto back = cas::decode_assignment(blob);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(cas::encode_assignment(*back), blob);
        EXPECT_EQ(back->key, assign.key);
    }
    {
        const std::string blob = cas::encode_routing(routed);
        const auto back = cas::decode_routing(blob, spec);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(cas::encode_routing(*back), blob);
        EXPECT_EQ(back->ok, routed.ok);
        EXPECT_EQ(back->topo.num_links(), routed.topo.num_links());
        EXPECT_EQ(pipeline::topology_fingerprint(back->topo),
                  pipeline::topology_fingerprint(routed.topo));
    }
    {
        // The failure side of a routing artifact round-trips too.
        pipeline::RoutingArtifact failed = routed;
        failed.ok = false;
        failed.fail_reason = "pruned: test";
        failed.failed_flows = 3;
        failed.capacity_violations = 1;
        const std::string blob = cas::encode_routing(failed);
        const auto back = cas::decode_routing(blob, spec);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(cas::encode_routing(*back), blob);
        EXPECT_EQ(back->fail_reason, "pruned: test");
    }
    {
        const std::string blob = cas::encode_placement(placed);
        const auto back = cas::decode_placement(blob, spec);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(cas::encode_placement(*back), blob);
        EXPECT_EQ(back->layer_die_area_mm2.size(),
                  placed.layer_die_area_mm2.size());
        EXPECT_EQ(pipeline::topology_fingerprint(back->topo),
                  pipeline::topology_fingerprint(placed.topo));
    }
    {
        const std::string blob = cas::encode_evaluation(evaluated);
        const auto back = cas::decode_evaluation(blob, spec);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(cas::encode_evaluation(*back), blob);
        EXPECT_EQ(back->point.valid, evaluated.point.valid);
        const double pa = back->point.report.power.total_mw();
        const double pb = evaluated.point.report.power.total_mw();
        EXPECT_EQ(std::memcmp(&pa, &pb, sizeof(double)), 0);
    }
}

TEST(CasCodec, MalformedBlobsDecodeToNullopt) {
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    pipeline::SynthesisSession session(spec);
    const auto part =
        session.partition(pipeline::PartitionGraphId::pg(), 4, cfg,
                          cfg.partition, Rng(cfg.seed).state());
    const pipeline::AssignmentArtifact assign =
        pipeline::phase1_assignment(*part, spec.cores);
    const pipeline::RoutingArtifact routed =
        pipeline::route_assignment(spec, cfg, assign.assign);
    const pipeline::EvaluatedDesign evaluated(
        pipeline::evaluate_design(pipeline::PlacementArtifact(routed.topo),
                                  spec, cfg));

    const std::string blobs[] = {
        cas::encode_partition(*part),
        cas::encode_assignment(assign),
        cas::encode_routing(routed),
        cas::encode_evaluation(evaluated),
    };
    for (const std::string& blob : blobs) {
        // Every strict prefix is a truncation; trailing garbage is noise a
        // mis-addressed read could produce. Both must be clean misses.
        const std::size_t cuts[] = {0, 1, blob.size() / 2, blob.size() - 1};
        for (const std::size_t cut : cuts) {
            const std::string t = blob.substr(0, cut);
            EXPECT_FALSE(cas::decode_partition(t).has_value());
            EXPECT_FALSE(cas::decode_assignment(t).has_value());
            EXPECT_FALSE(cas::decode_routing(t, spec).has_value());
            EXPECT_FALSE(cas::decode_placement(t, spec).has_value());
            EXPECT_FALSE(cas::decode_evaluation(t, spec).has_value());
        }
        const std::string noisy = blob + "x";
        EXPECT_FALSE(cas::decode_partition(noisy).has_value());
        EXPECT_FALSE(cas::decode_assignment(noisy).has_value());
        EXPECT_FALSE(cas::decode_routing(noisy, spec).has_value());
        EXPECT_FALSE(cas::decode_placement(noisy, spec).has_value());
        EXPECT_FALSE(cas::decode_evaluation(noisy, spec).has_value());
    }
}

// ------------------------------------------------------ session + store

TEST(CasSession, AttachingAStoreIsUnobservableInTheResults) {
    TempDir dir;
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();

    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(
        cas::StoreOptions{dir.path, 0, 60.0});
    pipeline::SynthesisSession session(spec, so);
    const SynthesisResult got = session.run(cfg);
    expect_same_results(got, run_synthesis(spec, cfg));
    // The cold run spilled every computed artifact.
    EXPECT_GT(so.cas->stats().objects, 0u);
    EXPECT_EQ(so.cas->stats().debris_files, 0u);
}

TEST(CasSession, WarmStoreServesAFreshSessionBitIdentically) {
    TempDir dir;
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const SynthesisResult ref = run_synthesis(spec, cfg);

    {
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(
            cas::StoreOptions{dir.path, 0, 60.0});
        pipeline::SynthesisSession warmup(spec, so);
        expect_same_results(warmup.run(cfg), ref);
    }

    // A brand-new process would start exactly here: empty in-memory
    // caches, a populated store. Every artifact must come back from disk
    // (stage hits without stage misses' compute) and the results must be
    // bit-identical to the cold flow.
    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(
        cas::StoreOptions{dir.path, 0, 60.0});
    const long long hits_before = counter("cas.hits");
    pipeline::SynthesisSession fresh(spec, so);
    const SynthesisResult got = fresh.run(cfg);
    expect_same_results(got, ref);
    EXPECT_GT(counter("cas.hits"), hits_before);
    const pipeline::SessionStats st = fresh.stats();
    EXPECT_GT(st.partition.hits + st.routing.hits + st.placement.hits +
                  st.evaluation.hits,
              0);
}

TEST(CasSession, CorruptedObjectsAreRecomputedNeverServed) {
    TempDir dir;
    const DesignSpec spec = make_benchmark("D_36_4");
    const SynthesisConfig cfg = fast_cfg();
    const SynthesisResult ref = run_synthesis(spec, cfg);

    {
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(
            cas::StoreOptions{dir.path, 0, 60.0});
        pipeline::SynthesisSession warmup(spec, so);
        warmup.run(cfg);
    }

    // Flip one payload byte of every record in the store — the payload
    // checksum must catch each one.
    std::uint64_t flipped = 0;
    {
        cas::Store census = open_store(dir.path);
        flipped = census.stats().objects;
    }
    ASSERT_GT(flipped, 0u);
    std::uint64_t records = 0;
    const std::vector<std::string> damaged_packs = pack_paths(dir.path);
    for (const std::string& pack : damaged_packs) {
        std::string bytes = read_file(pack);
        const std::vector<Record> recs = records_of(bytes);
        ASSERT_FALSE(recs.empty());
        // The warm-up store sealed its pack: records, then a summary of
        // exactly those records.
        const auto summary = summary_of(bytes);
        ASSERT_TRUE(summary.has_value()) << pack;
        ASSERT_EQ(summary->size(), recs.size()) << pack;
        ASSERT_EQ(cas_test::summary_start(bytes, recs.size()),
                  recs.back().off + recs.back().len)
            << pack;
        for (const Record& r : recs) {
            ASSERT_GT(r.payload_len, 0u) << r.key;
            // Alternate between the payload's middle and its last byte.
            const std::size_t at =
                records % 2 == 0 ? r.off + r.len - 1 - r.payload_len / 2
                                 : r.off + r.len - 1;
            bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
            ++records;
        }
        write_file(pack, bytes);
    }
    EXPECT_EQ(records, flipped);  // one writer, one record per key

    const long long corrupt_before = counter("cas.corrupt");
    const long long hits_before = counter("cas.hits");
    {
        pipeline::SessionOptions so;
        so.cas = std::make_shared<cas::Store>(
            cas::StoreOptions{dir.path, 0, 60.0});
        pipeline::SynthesisSession fresh(spec, so);
        const SynthesisResult got = fresh.run(cfg);
        expect_same_results(got, ref);
        EXPECT_GT(counter("cas.corrupt"), corrupt_before);
        // Nothing was served from the corrupted store...
        EXPECT_EQ(fresh.stats().partition.hits, 0);
        EXPECT_EQ(counter("cas.hits"), hits_before);
    }

    // ...the recompute stored every artifact again, in a pack of its
    // own beside the damaged ones...
    const std::vector<std::string> packs_after = pack_paths(dir.path);
    ASSERT_EQ(packs_after.size(), damaged_packs.size() + 1);
    std::map<std::string, int> copies;
    for (const std::string& pack : packs_after)
        for (const Record& r : records_of(read_file(pack))) ++copies[r.key];
    EXPECT_EQ(copies.size(), flipped);
    for (const auto& [key, n] : copies) EXPECT_EQ(n, 2) << key;

    // ...and those records are intact: a third session is served every
    // stage from the store, bit-identically, with no store miss.
    const long long misses_before = counter("cas.misses");
    pipeline::SessionOptions so;
    so.cas = std::make_shared<cas::Store>(
        cas::StoreOptions{dir.path, 0, 60.0});
    pipeline::SynthesisSession third(spec, so);
    expect_same_results(third.run(cfg), ref);
    const pipeline::SessionStats st = third.stats();
    EXPECT_GT(st.partition.hits, 0);
    EXPECT_EQ(st.partition.misses + st.routing.misses + st.placement.misses +
                  st.evaluation.misses,
              0);
    EXPECT_EQ(counter("cas.misses"), misses_before);
}

// -------------------------------------------------------- multi-process

TEST(CasStore, ConcurrentProcessesShareOneDirectorySafely) {
    TempDir dir;
    constexpr int kProcs = 4;
    constexpr int kKeys = 24;
    const auto key_of = [](int i) {
        return "shared|key|" + std::to_string(i);
    };
    const auto payload_of = [](int i) {
        std::string p = "payload-" + std::to_string(i) + "-";
        p.append(static_cast<std::size_t>(200 + i),
                 static_cast<char>('a' + i % 26));
        return p;
    };

    std::vector<pid_t> pids;
    for (int p = 0; p < kProcs; ++p) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: no gtest machinery — report through the exit code.
            try {
                cas::Store store(cas::StoreOptions{dir.path, 0, 60.0});
                for (int round = 0; round < 5; ++round) {
                    for (int i = 0; i < kKeys; ++i) {
                        if ((i + round + p) % 2 == 0) {
                            if (!store.put(key_of(i), payload_of(i)))
                                ::_exit(2);
                        } else {
                            std::string got;
                            // A racing get may miss (another process is
                            // mid-append) but must never see wrong bytes.
                            if (store.get(key_of(i), got) &&
                                got != payload_of(i))
                                ::_exit(3);
                        }
                    }
                    store.gc();
                }
            } catch (...) {
                ::_exit(4);
            }
            ::_exit(0);
        }
        pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    // Afterwards every key holds exactly its payload, and the directory
    // holds nothing but one pack per writing process.
    cas::Store store = open_store(dir.path);
    for (int i = 0; i < kKeys; ++i) {
        std::string got;
        ASSERT_TRUE(store.get(key_of(i), got)) << key_of(i);
        EXPECT_EQ(got, payload_of(i));
    }
    EXPECT_EQ(store.stats().debris_files, 0u);
    EXPECT_EQ(pack_paths(dir.path).size(), static_cast<std::size_t>(kProcs));
    EXPECT_EQ(list_dir(dir.path).size(), static_cast<std::size_t>(kProcs));
}

}  // namespace
}  // namespace sunfloor
