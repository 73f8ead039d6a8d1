#include "sim/tick_log.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace infless::sim {

namespace {

/** Longest varint of a 64-bit value. */
constexpr std::size_t kMaxVarint = 10;

std::uint8_t *
putVarint(std::uint8_t *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
}

std::uint64_t
getVarint(const std::uint8_t *&p)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    std::uint8_t byte;
    do {
        byte = *p++;
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        shift += 7;
    } while (byte & 0x80);
    return v;
}

} // namespace

TickLog::TickLog(std::size_t cursors, bool tagged)
    : cursors_(cursors), tagged_(tagged)
{
    simAssert(cursors > 0, "tick log needs at least one cursor");
}

TickLog::Chunk &
TickLog::tailWithRoom(std::size_t bytes)
{
    if (chunks_.empty() || chunks_.back()->used + bytes > kPayload)
        chunks_.emplace_back(new Chunk);
    return *chunks_.back();
}

void
TickLog::push(Tick tick, std::uint32_t tag)
{
    if (pushed_ == 0) {
        // The first record anchors every delta chain: it encodes as 0.
        last_ = tick;
        for (Cursor &c : cursors_)
            c.last = tick;
    }
    // Unsigned arithmetic: any two ticks are at most 2^64 - 1 apart.
    auto from = static_cast<std::uint64_t>(last_);
    auto to = static_cast<std::uint64_t>(tick);
    bool back = tick < last_;
    simAssert(tagged_ || (!back && tag == 0),
              "untagged tick log takes non-decreasing ticks and no tag: ",
              tick, " after ", last_);

    Chunk &chunk = tailWithRoom(tagged_ ? 2 * kMaxVarint : kMaxVarint);
    std::uint8_t *p = chunk.bytes + chunk.used;
    p = putVarint(p, back ? from - to : to - from);
    if (tagged_)
        p = putVarint(p, (static_cast<std::uint64_t>(tag) << 1) | back);
    chunk.used = static_cast<std::uint32_t>(p - chunk.bytes);
    last_ = tick;
    ++pushed_;
}

void
TickLog::append(std::span<const Tick> ticks)
{
    simAssert(!tagged_, "a tagged tick log takes records one by one");
    if (ticks.empty())
        return;
    std::size_t first = 0;
    if (pushed_ == 0)
        push(ticks[first++]);
    // push() in a loop, with the write position and last tick held in
    // locals: byte stores through the chunk would otherwise force the
    // members to be reloaded on every tick.
    Chunk *chunk = &tailWithRoom(kMaxVarint);
    std::uint8_t *p = chunk->bytes + chunk->used;
    Tick last = last_;
    for (std::size_t i = first; i < ticks.size(); ++i) {
        Tick tick = ticks[i];
        simAssert(tick >= last, "untagged tick log takes non-decreasing ",
                  "ticks: ", tick, " after ", last);
        if (p + kMaxVarint > chunk->bytes + kPayload) {
            chunk->used = static_cast<std::uint32_t>(p - chunk->bytes);
            chunk = &tailWithRoom(kMaxVarint);
            p = chunk->bytes;
        }
        p = putVarint(p, static_cast<std::uint64_t>(tick) -
                             static_cast<std::uint64_t>(last));
        last = tick;
    }
    chunk->used = static_cast<std::uint32_t>(p - chunk->bytes);
    last_ = last;
    pushed_ += ticks.size() - first;
}

TickLog::Record
TickLog::decode(Cursor &at) const
{
    const Chunk *chunk = chunks_[at.chunk - base_].get();
    if (at.offset == chunk->used) {
        // Parked at the end of a chunk that later pushes did not fit in.
        ++at.chunk;
        at.offset = 0;
        chunk = chunks_[at.chunk - base_].get();
    }
    const std::uint8_t *p = chunk->bytes + at.offset;
    std::uint64_t delta = getVarint(p);
    std::uint64_t word = tagged_ ? getVarint(p) : 0;
    auto tick = static_cast<std::uint64_t>(at.last);
    tick = (word & 1) ? tick - delta : tick + delta;
    at.last = static_cast<Tick>(tick);
    at.offset = static_cast<std::uint32_t>(p - chunk->bytes);
    ++at.read;
    return Record{at.last, static_cast<std::uint32_t>(word >> 1)};
}

TickLog::Record
TickLog::take(std::size_t c)
{
    simAssert(!done(c), "tick log cursor ", c, " read past the end");
    Cursor &cur = cursors_[c];
    std::uint64_t from = cur.chunk;
    Record rec = decode(cur);
    if (cur.chunk != from || cur.read == pushed_)
        release();
    return rec;
}

void
TickLog::release()
{
    bool all_done = true;
    std::uint64_t slowest = base_ + chunks_.size();
    for (const Cursor &c : cursors_) {
        all_done = all_done && c.read == pushed_;
        slowest = std::min(slowest, c.chunk);
    }
    if (all_done) {
        // Nothing left to read: drop the tail chunk too, and park every
        // cursor at the start of the chunk the next push opens.
        base_ += chunks_.size();
        chunks_.clear();
        for (Cursor &c : cursors_) {
            c.chunk = base_;
            c.offset = 0;
        }
        return;
    }
    if (slowest > base_) {
        chunks_.erase(chunks_.begin(),
                      chunks_.begin() +
                          static_cast<std::ptrdiff_t>(slowest - base_));
        base_ = slowest;
    }
}

} // namespace infless::sim
