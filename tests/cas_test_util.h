// Helpers shared by the artifact-store tests: scratch directories, whole
// file I/O and a reader of the pack layout (records and the summary block
// of a sealed pack) documented in cas/store.h and cas/store.cpp,
// used to damage or age a store the way a crash or a disk would.
#pragma once

#include <dirent.h>
#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "sunfloor/cas/store.h"

namespace sunfloor::cas_test {

struct TempDir {
    std::string path;
    TempDir() {
        char buf[] = "/tmp/sunfloor_cas_XXXXXX";
        const char* p = ::mkdtemp(buf);
        EXPECT_NE(p, nullptr);
        if (p) path = p;
    }
    ~TempDir() {
        if (!path.empty()) std::system(("rm -rf " + path).c_str());
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
};

inline std::string read_file(const std::string& path) {
    std::string out;
    FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f) return out;
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
}

inline void write_file(const std::string& path, const std::string& bytes) {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/// Every entry of `dir` but "." and "..", sorted.
inline std::vector<std::string> list_dir(const std::string& dir) {
    std::vector<std::string> names;
    if (DIR* d = ::opendir(dir.c_str())) {
        while (const dirent* e = ::readdir(d)) {
            const std::string name(e->d_name);
            if (name != "." && name != "..") names.push_back(name);
        }
        ::closedir(d);
    }
    std::sort(names.begin(), names.end());
    return names;
}

/// Full paths of the `*.pack` files in `dir`, sorted.
inline std::vector<std::string> pack_paths(const std::string& dir) {
    std::vector<std::string> out;
    for (const std::string& n : list_dir(dir))
        if (n.size() > 5 && n.compare(n.size() - 5, 5, ".pack") == 0)
            out.push_back(dir + "/" + n);
    return out;
}

/// One record of a pack: [off, off + len), key echo at off + 28, payload
/// after it.
struct Record {
    std::size_t off = 0;
    std::size_t len = 0;
    std::string key;
    std::size_t payload_len = 0;
};

inline constexpr std::size_t kRecordHeader = 28;

inline std::uint64_t le(const std::string& b, std::size_t at, int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
        const auto byte = static_cast<unsigned char>(
            b[at + static_cast<std::size_t>(i)]);
        v |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return v;
}

/// Write `v` little-endian into `bytes` bytes of `b` at `at`.
inline void put_le(std::string& b, std::size_t at, int bytes,
                   std::uint64_t v) {
    for (int i = 0; i < bytes; ++i)
        b[at + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xff);
}

/// The whole records of a pack's bytes, in file order (a walk from the
/// start that ends at a summary block, a torn tail or a bad magic).
inline std::vector<Record> records_of(const std::string& pack) {
    std::vector<Record> out;
    std::size_t off = 0;
    while (pack.size() - off >= kRecordHeader &&
           pack.compare(off, 8, "SFCAS001") == 0) {
        const auto key_len = static_cast<std::size_t>(le(pack, off + 8, 4));
        const auto pay_len = static_cast<std::size_t>(le(pack, off + 12, 8));
        const std::size_t rest = pack.size() - off - kRecordHeader;
        if (key_len > rest || pay_len > rest - key_len) break;
        Record r;
        r.off = off;
        r.len = kRecordHeader + key_len + pay_len;
        r.key = pack.substr(off + kRecordHeader, key_len);
        r.payload_len = pay_len;
        out.push_back(r);
        off += r.len;
    }
    return out;
}

/// One entry of a pack's summary block.
struct SummaryEntry {
    std::uint64_t key_hash = 0;
    std::size_t off = 0;
    std::size_t len = 0;
};

/// Offset of the summary block `summary_of` found (the end of the
/// records it lists).
inline std::size_t summary_start(const std::string& pack, std::size_t n) {
    return pack.size() - (8 + 24 * n + 24);
}

/// The entries of the summary block a sealed pack ends in, by the rules
/// of cas/store.h: a "SFCASEND" trailer with the entry count and the
/// checksum of the block, a "SFCASSUM" block start, and entries in file
/// order that each lie before the block. nullopt when any rule fails.
inline std::optional<std::vector<SummaryEntry>> summary_of(
    const std::string& pack) {
    if (pack.size() < 32 || pack.compare(pack.size() - 8, 8, "SFCASEND") != 0)
        return std::nullopt;
    const std::uint64_t n = le(pack, pack.size() - 24, 8);
    if (n > (pack.size() - 32) / 24) return std::nullopt;
    const std::size_t start = summary_start(pack, static_cast<std::size_t>(n));
    if (pack.compare(start, 8, "SFCASSUM") != 0) return std::nullopt;
    const std::size_t body = pack.size() - 16 - start;
    if (cas::fnv1a64(std::string_view(pack).substr(start, body)) !=
        le(pack, pack.size() - 16, 8))
        return std::nullopt;
    std::vector<SummaryEntry> out;
    std::size_t end = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::size_t at = start + 8 + 24 * static_cast<std::size_t>(i);
        const std::uint64_t off = le(pack, at + 8, 8);
        const std::uint64_t len = le(pack, at + 16, 8);
        if (off < end || off > start || len < kRecordHeader ||
            len > start - off)
            return std::nullopt;
        out.push_back({le(pack, at, 8), static_cast<std::size_t>(off),
                       static_cast<std::size_t>(len)});
        end = static_cast<std::size_t>(off + len);
    }
    return out;
}

}  // namespace sunfloor::cas_test
