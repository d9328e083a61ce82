// Seeded mutation fuzz of the artifact store's pack reader. A store of a
// few hundred records across three packs — each sealed with its summary
// block or left as a crashed writer leaves it, without one — is damaged
// per seed: torn tails, bit flips, rewritten header lengths, spliced-in
// bytes, summaries that check out but lie, junk `*.pack` files. Both a
// Store opened after the damage and one that had indexed the packs
// before it must then return, for every key, exactly the bytes that were
// put or a miss: never other bytes, never a crash or a hang. Records in
// packs the seed left alone must still hit.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cas_test_util.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/util/rng.h"

namespace sunfloor {
namespace {

using cas_test::pack_paths;
using cas_test::put_le;
using cas_test::read_file;
using cas_test::Record;
using cas_test::records_of;
using cas_test::summary_of;
using cas_test::TempDir;
using cas_test::write_file;

constexpr int kPacks = 3;
constexpr int kRecordsPerPack = 100;
constexpr int kSeeds = 150;

struct Pristine {
    std::map<std::string, std::string> payloads;  // key -> payload
    std::vector<std::string> pack_names;          // sorted
    std::vector<std::string> pack_bytes;          // sealed, same order
};

std::string name_of(const std::string& path) {
    return path.substr(path.rfind('/') + 1);
}

/// Fill a store with kPacks x kRecordsPerPack records of varied key and
/// payload sizes and keep the resulting pack bytes.
Pristine make_pristine() {
    Pristine p;
    TempDir dir;
    Rng rng(20240611);
    for (int w = 0; w < kPacks; ++w) {
        cas::Store store(cas::StoreOptions{dir.path, 0, 60.0});
        for (int i = 0; i < kRecordsPerPack; ++i) {
            const std::string key =
                "spec:" + std::to_string(w) + "|stage|" + std::to_string(i) +
                std::string(static_cast<std::size_t>(rng.next_int(0, 40)),
                            'k');
            std::string payload(
                static_cast<std::size_t>(rng.next_int(0, 300)), '\0');
            for (char& c : payload)
                c = static_cast<char>(rng.next_int(0, 255));
            EXPECT_TRUE(store.put(key, payload));
            p.payloads[key] = payload;
        }
    }
    for (const std::string& path : pack_paths(dir.path)) {
        p.pack_names.push_back(name_of(path));
        p.pack_bytes.push_back(read_file(path));
    }
    return p;
}

/// The pack as its writer left it before sealing: the records only.
std::string unsealed(const std::string& pack) {
    const auto summary = summary_of(pack);
    EXPECT_TRUE(summary.has_value());
    return summary ? pack.substr(0, cas_test::summary_start(
                                        pack, summary->size()))
                   : pack;
}

/// Apply 1-3 random mutations to the packs; returns which packs changed.
std::vector<bool> mutate(std::vector<std::string>& packs, Rng& rng,
                         std::string& junk) {
    std::vector<bool> touched(packs.size(), false);
    const int n = rng.next_int(1, 3);
    for (int m = 0; m < n; ++m) {
        const auto which = static_cast<std::size_t>(
            rng.next_int(0, static_cast<int>(packs.size()) - 1));
        std::string& b = packs[which];
        if (b.empty()) continue;
        const auto at = static_cast<std::size_t>(
            rng.next_int(0, static_cast<int>(b.size()) - 1));
        const std::vector<Record> recs = records_of(b);
        switch (rng.next_int(0, 5)) {
            case 0:  // torn tail
                b.resize(at);
                break;
            case 1: {  // bit flips
                const int flips = rng.next_int(1, 8);
                for (int f = 0; f < flips; ++f) {
                    const auto pos = static_cast<std::size_t>(
                        rng.next_int(0, static_cast<int>(b.size()) - 1));
                    b[pos] = static_cast<char>(b[pos] ^
                                               (1 << rng.next_int(0, 7)));
                }
                break;
            }
            case 2: {  // rewrite a record's key or payload length
                if (recs.empty()) break;
                const Record& r = recs[static_cast<std::size_t>(
                    rng.next_int(0, static_cast<int>(recs.size()) - 1))];
                if (rng.next_int(0, 3) == 0) {
                    // Both, so that their sum wraps back onto the record's
                    // length: a longer key and a payload length near 2^64.
                    const std::uint64_t key_len =
                        r.key.size() + 1 +
                        static_cast<std::uint64_t>(rng.next_int(0, 100));
                    const std::uint64_t pay_len =
                        (r.len - cas_test::kRecordHeader) - key_len;
                    put_le(b, r.off + 8, 4, key_len);
                    put_le(b, r.off + 12, 8, pay_len);
                    break;
                }
                const bool key_len = rng.next_int(0, 1) == 0;
                const std::size_t field = r.off + (key_len ? 8 : 12);
                const int width = key_len ? 4 : 8;
                std::uint64_t v = 0;
                switch (rng.next_int(0, 3)) {
                    case 0: v = 0; break;
                    case 1: v = ~std::uint64_t{0}; break;
                    case 2:
                        v = static_cast<std::uint64_t>(
                            rng.next_int(0, 1 << 20));
                        break;
                    default:
                        v = (key_len ? r.key.size() : r.payload_len) +
                            static_cast<std::uint64_t>(
                                rng.next_int(-3, 3));
                        break;
                }
                put_le(b, field, width, v);
                break;
            }
            case 3: {  // splice random bytes (sometimes a record's prefix)
                std::string bytes(
                    static_cast<std::size_t>(rng.next_int(1, 64)), '\0');
                for (char& c : bytes)
                    c = static_cast<char>(rng.next_int(0, 255));
                if (!recs.empty() && rng.next_int(0, 1) == 0)
                    bytes = b.substr(recs.front().off,
                                     std::min<std::size_t>(
                                         recs.front().len,
                                         static_cast<std::size_t>(
                                             rng.next_int(1, 200))));
                b.insert(at, bytes);
                break;
            }
            case 4: {  // a summary that checks out but lies
                const auto summary = summary_of(b);
                if (!summary || summary->empty()) break;
                const std::size_t n = summary->size();
                const std::size_t start = cas_test::summary_start(b, n);
                const std::size_t entry =
                    start + 8 +
                    24 * static_cast<std::size_t>(
                             rng.next_int(0, static_cast<int>(n) - 1));
                const std::size_t other =
                    start + 8 +
                    24 * static_cast<std::size_t>(
                             rng.next_int(0, static_cast<int>(n) - 1));
                // One field (key hash, offset or length) of one entry:
                // another entry's, nudged, or random.
                const std::size_t field =
                    8 * static_cast<std::size_t>(rng.next_int(0, 2));
                std::uint64_t v = cas_test::le(b, other + field, 8);
                if (rng.next_int(0, 2) == 0)
                    v += static_cast<std::uint64_t>(rng.next_int(-40, 40));
                else if (rng.next_int(0, 2) == 0)
                    v = static_cast<std::uint64_t>(
                        rng.next_int(0, static_cast<int>(b.size())));
                put_le(b, entry + field, 8, v);
                put_le(b, b.size() - 16, 8,
                       cas::fnv1a64(std::string_view(b).substr(
                           start, b.size() - 16 - start)));
                break;
            }
            default: {  // a junk *.pack, sometimes starting like a record
                junk.assign(static_cast<std::size_t>(rng.next_int(0, 400)),
                            '\0');
                for (char& c : junk)
                    c = static_cast<char>(rng.next_int(0, 255));
                if (rng.next_int(0, 1) == 0) junk.insert(0, b.substr(0, 40));
                continue;  // the real packs are unchanged
            }
        }
        touched[which] = true;
    }
    return touched;
}

TEST(CasPackFuzz, DamagedPacksServeExactBytesOrMiss) {
    const Pristine pristine = make_pristine();
    ASSERT_EQ(pristine.pack_bytes.size(), static_cast<std::size_t>(kPacks));
    // Which pack holds each key.
    std::map<std::string, std::size_t> home;
    for (std::size_t i = 0; i < pristine.pack_bytes.size(); ++i)
        for (const Record& r : records_of(pristine.pack_bytes[i]))
            home[r.key] = i;
    ASSERT_EQ(home.size(), pristine.payloads.size());

    long long served = 0;
    long long missed = 0;
    // Every get of `store` returns the put bytes or misses; keys whose
    // pack the seed left alone must hit.
    const auto check = [&](cas::Store& store, const std::vector<bool>& touched,
                           int seed, const char* which) {
        for (const auto& [key, payload] : pristine.payloads) {
            std::string got;
            if (store.get(key, got)) {
                ASSERT_EQ(got, payload)
                    << which << " seed " << seed << " key " << key;
                ++served;
            } else {
                ASSERT_TRUE(touched[home.at(key)])
                    << which << " seed " << seed << ": intact pack missed "
                    << key;
                ++missed;
            }
        }
        std::string got;
        EXPECT_FALSE(store.get("never-stored", got))
            << which << " seed " << seed;
    };
    for (int seed = 1; seed <= kSeeds; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed));
        // Each pack sealed, or unsealed as a crashed writer leaves it.
        std::vector<std::string> intact = pristine.pack_bytes;
        for (std::string& b : intact)
            if (rng.next_int(0, 2) == 0) b = unsealed(b);
        std::vector<std::string> packs = intact;
        std::string junk;
        const std::vector<bool> touched = mutate(packs, rng, junk);

        TempDir dir;
        for (std::size_t i = 0; i < packs.size(); ++i)
            write_file(dir.path + "/" + pristine.pack_names[i], intact[i]);
        // `stale` indexes the intact packs, then the damage lands under
        // it: its reads meet damaged bytes at trusted offsets.
        cas::Store stale(cas::StoreOptions{dir.path, 0, 60.0});
        std::string got;
        ASSERT_FALSE(stale.get("never-stored", got));
        for (std::size_t i = 0; i < packs.size(); ++i)
            write_file(dir.path + "/" + pristine.pack_names[i], packs[i]);
        if (!junk.empty() || rng.next_int(0, 3) == 0)
            write_file(dir.path + "/junk.pack", junk);

        // `fresh` scans the damaged packs from scratch.
        cas::Store fresh(cas::StoreOptions{dir.path, 0, 60.0});
        check(fresh, touched, seed, "fresh");
        check(stale, touched, seed, "stale");
        // The census counts the distinct key hashes this file's own
        // reader of the layout finds: a valid summary's entries, else the
        // whole records.
        std::set<std::uint64_t> keys;
        for (const std::string& path : pack_paths(dir.path)) {
            const std::string bytes = read_file(path);
            if (const auto summary = summary_of(bytes)) {
                for (const cas_test::SummaryEntry& e : *summary)
                    keys.insert(e.key_hash);
            } else {
                for (const Record& r : records_of(bytes))
                    keys.insert(cas::fnv1a64(r.key));
            }
        }
        EXPECT_EQ(fresh.stats().objects, keys.size()) << "seed " << seed;
    }
    // The seeds exercise both outcomes.
    EXPECT_GT(served, 0);
    EXPECT_GT(missed, 0);
}

}  // namespace
}  // namespace sunfloor
