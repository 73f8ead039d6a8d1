/**
 * @file
 * The platform's request table: one RequestRecord per in-flight request.
 *
 * A request id is its arrival-order index, and ids are never reused:
 * trace sampling hashes the id, so reuse would change which requests a
 * run traces. Records live in fixed chunks of kChunkRecords ids. Each
 * record is retired exactly once, at its request's terminal point
 * (completion, or the drop that every shed, eviction and exhausted
 * failover ends in). Once every record of a chunk has retired, the chunk
 * is freed and leaves the index, so memory follows in-flight work rather
 * than run length.
 */

#ifndef INFLESS_CORE_REQUEST_TABLE_HH
#define INFLESS_CORE_REQUEST_TABLE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/batch_queue.hh"
#include "core/types.hh"
#include "sim/logging.hh"

namespace infless::core {

/**
 * Chunked, append-only id space over retire-once request records.
 */
class RequestTable
{
  public:
    /**
     * Records per chunk: 256 × 72 B = 18 KiB. A cell holds a few dozen
     * requests in flight, so a few chunks cover it, and a chunk is under
     * glibc's 128 KiB mmap threshold, so malloc's arena hands a freed
     * chunk's memory to the next one.
     */
    static constexpr std::size_t kChunkRecords = 256;

    /** Store @p record under the next id; returns that id. */
    RequestIndex add(const RequestRecord &record)
    {
        std::size_t slot = static_cast<std::size_t>(next_) % kChunkRecords;
        if (slot == 0)
            chunks_.push_back(std::make_unique<Chunk>());
        RequestRecord &stored = chunks_.back()->records[slot];
        stored = record;
        stored.retired = false;
        ++live_;
        return next_++;
    }

    /** The live record of @p id; panics when it was retired. */
    RequestRecord &operator[](RequestIndex id)
    {
        return liveRecord(id, "read");
    }

    /**
     * Mark @p id's request settled. Panics on a second retire. When this
     * retires the last record of a chunk, the chunk is freed and its
     * index entry becomes null. A chunk can only be fully retired once
     * all its ids were issued, so the chunk being filled is never
     * released.
     */
    void retire(RequestIndex id)
    {
        liveRecord(id, "retire").retired = true;
        --live_;
        std::unique_ptr<Chunk> &chunk =
            chunks_[static_cast<std::size_t>(id) / kChunkRecords];
        if (++chunk->retired == kChunkRecords)
            chunk.reset();
    }

    /** Records added and not yet retired. */
    std::int64_t live() const { return live_; }

    /** Bytes of record storage held: every chunk not yet freed. */
    std::size_t heldBytes() const
    {
        auto held = std::count_if(
            chunks_.begin(), chunks_.end(),
            [](const auto &chunk) { return chunk != nullptr; });
        return static_cast<std::size_t>(held) * kChunkRecords *
               sizeof(RequestRecord);
    }

  private:
    struct Chunk
    {
        std::array<RequestRecord, kChunkRecords> records;
        std::size_t retired = 0;
    };

    RequestRecord &liveRecord(RequestIndex id, const char *what)
    {
        sim::simAssert(id >= 0 && id < next_, what, " of unknown request ",
                       id);
        Chunk *chunk =
            chunks_[static_cast<std::size_t>(id) / kChunkRecords].get();
        sim::simAssert(chunk != nullptr, what, " of retired request ", id);
        RequestRecord &record =
            chunk->records[static_cast<std::size_t>(id) % kChunkRecords];
        sim::simAssert(!record.retired, what, " of retired request ", id);
        return record;
    }

    /** Indexed by id / kChunkRecords; null once a chunk fully retired. */
    std::vector<std::unique_ptr<Chunk>> chunks_;
    RequestIndex next_ = 0;
    std::int64_t live_ = 0;
};

} // namespace infless::core

#endif // INFLESS_CORE_REQUEST_TABLE_HH
