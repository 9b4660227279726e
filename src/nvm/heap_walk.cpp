#include "nvm/heap_walk.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

#include "common/panic.h"

namespace ido::nvm {

void*
map_huge(size_t bytes)
{
    // Over-map by one huge page and trim both ends: the start to the
    // alignment, the end to the small page holding the last byte.
    const auto page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    const size_t len = (bytes + page - 1) & ~(page - 1);
    const size_t span = len + kHugePageBytes;
    void* m = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED)
        throw std::bad_alloc();
    const auto base = reinterpret_cast<uintptr_t>(m);
    const uintptr_t p =
        (base + kHugePageBytes - 1) & ~uintptr_t{kHugePageBytes - 1};
    if (p != base)
        ::munmap(m, p - base);
    ::munmap(reinterpret_cast<void*>(p + len), base + span - p - len);
    // Advice only: where it is refused the array lives on small pages.
    ::madvise(reinterpret_cast<void*>(p), len, MADV_HUGEPAGE);
    return reinterpret_cast<void*>(p);
}

void
unmap_huge(void* p, size_t bytes)
{
    ::munmap(p, bytes); // the kernel rounds the length up to a page
}

ArenaWalk::ArenaWalk(const PersistentHeap& heap, uint64_t data_begin,
                     uint64_t bump)
    : heap_(heap)
{
    constexpr uint64_t kHdr = arena::kHeaderBytes;
    uint64_t off = data_begin;
    while (off + kHdr <= bump) {
        const auto* words = heap_.resolve<uint64_t>(off);
        if (words[0] == arena::kChunkMagic) {
            if (words[1] != arena::kChunkBytes || off + words[1] > bump) {
                end_ = End::kMalformed;
                return;
            }
            segs_.push_back(Segment{off, 0, 0});
            ++nchunks_;
            off += words[1];
        } else {
            // Oversize (or arena-tail) block carved straight from the
            // global arena.
            if (!arena::recognized(words[1])) {
                end_ = End::kTornTail;
                return;
            }
            if (words[0] == 0 || off + kHdr + words[0] > heap_.size()) {
                end_ = End::kMalformed;
                return;
            }
            segs_.push_back(Segment{off + kHdr, words[0], words[1]});
            off += kHdr + words[0];
        }
    }
}

HeapIndex
ArenaWalk::fill(const std::vector<size_t>& first) const
{
    HeapIndex idx;
    idx.blocks.resize(first.back());
    parallel_for(segs_.size(), workers(), 8, [&](size_t, size_t k) {
        size_t i = first[k];
        walk(k, [&](uint64_t raw, uint64_t size, uint64_t meta) {
            IDO_ASSERT(i < first[k + 1], "heap walk: chunk changed mid-index");
            idx.blocks[i++] = IndexedBlock{raw, size, meta, 0, false, false};
        });
        IDO_ASSERT(i == first[k + 1], "heap walk: chunk changed mid-index");
    });
    idx.chunks.reserve(nchunks_);
    for (size_t k = 0; k < segs_.size(); ++k)
        if (segs_[k].size == 0)
            idx.chunks.push_back(
                IndexedChunk{segs_[k].off, first[k], first[k + 1]});
    return idx;
}

bool
ArenaWalk::index(HeapIndex* out) const
{
    bool ok = true;
    const std::vector<size_t> first =
        visit([](size_t, uint64_t, uint64_t, uint64_t) {}, &ok);
    if (!ok)
        return false;
    *out = fill(first);
    return true;
}

} // namespace ido::nvm
