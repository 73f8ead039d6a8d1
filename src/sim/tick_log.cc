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

TickLog::TickLog(std::size_t cursors) : cursors_(cursors)
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
TickLog::push(Tick tick)
{
    if (pushed_ == 0) {
        // The first tick anchors every delta chain: it encodes as 0.
        last_ = tick;
        for (Cursor &c : cursors_)
            c.last = tick;
    }
    simAssert(tick >= last_, "tick log takes non-decreasing ticks: ", tick,
              " after ", last_);

    Chunk &chunk = tailWithRoom(kMaxVarint);
    std::uint8_t *p = chunk.bytes + chunk.used;
    // Unsigned arithmetic: any two ticks are at most 2^64 - 1 apart.
    p = putVarint(p, static_cast<std::uint64_t>(tick) -
                         static_cast<std::uint64_t>(last_));
    chunk.used = static_cast<std::uint32_t>(p - chunk.bytes);
    last_ = tick;
    ++pushed_;
}

void
TickLog::append(std::span<const Tick> ticks)
{
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
        simAssert(tick >= last, "tick log takes non-decreasing ticks: ",
                  tick, " after ", last);
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

Tick
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
    at.last = static_cast<Tick>(static_cast<std::uint64_t>(at.last) +
                                getVarint(p));
    at.offset = static_cast<std::uint32_t>(p - chunk->bytes);
    ++at.read;
    return at.last;
}

Tick
TickLog::take(std::size_t c)
{
    simAssert(!done(c), "tick log cursor ", c, " read past the end");
    Cursor &cur = cursors_[c];
    std::uint64_t from = cur.chunk;
    Tick tick = decode(cur);
    if (cur.chunk != from || cur.read == pushed_)
        release();
    return tick;
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
