// The lock-free ring behind the flight recorder and the decision audit
// (DESIGN.md §11, §16): fixed slots, each a payload bracketed by a
// sequence word, so any thread records without a lock and any thread
// reads without stopping the writers.
//
// push claims a sequence number with one relaxed fetch_add on `head`,
// zeroes the slot's seq (readers now reject it), stores the payload
// words and a check word, and publishes with a release store of the
// 1-based seq.  The payload stores are release stores so none of them
// can become visible before the zeroing; on x86 that is the same plain
// move as a relaxed store.  read loads seq (acquire), copies the words
// and the check with acquire loads (so the re-check cannot move above
// them) and re-loads seq: a slot rewritten in between fails the
// re-check.  The seq bracket alone cannot see a writer lapped while it
// was preempted between its claim and its stores — its late stores land
// in a slot a newer writer already published — so the check word, a
// hash of the seq and the payload words, rejects any copy whose words
// do not all belong to that seq.  No torn copy is ever returned (short
// of a 64-bit hash collision).  Every slot word is an atomic, so writers
// lapping each other on one slot stay free of data races.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace grb {
namespace obs {

// `Payload` is a trivially copyable struct whose size is a multiple of
// eight bytes with no padding (pad explicitly), copied word by word.
template <class Payload>
class SeqRing {
  static_assert(std::is_trivially_copyable_v<Payload>);
  static_assert(sizeof(Payload) % sizeof(uint64_t) == 0);
  static constexpr size_t kWords = sizeof(Payload) / sizeof(uint64_t);

  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = empty or being written
    std::atomic<uint64_t> words[kWords] = {};
    std::atomic<uint64_t> check{0};
  };

 public:
  // `capacity` must be a power of two.
  explicit SeqRing(uint64_t capacity)
      : slots_(new Slot[capacity]), mask_(capacity - 1) {}
  SeqRing(const SeqRing&) = delete;
  SeqRing& operator=(const SeqRing&) = delete;

  // Records `p`; returns its sequence number (1-based, never reused
  // until reset).
  uint64_t push(const Payload& p) {
    const uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed) + 1;
    Slot& s = slot(seq);
    s.seq.store(0, std::memory_order_relaxed);
    store_words(s, seq, p);
    s.seq.store(seq, std::memory_order_release);
    return seq;
  }

  // Copies entry `seq` into *out; false when the slot no longer (or not
  // yet) holds that entry.
  bool read(uint64_t seq, Payload* out) const {
    const Slot& s = slot(seq);
    if (s.seq.load(std::memory_order_acquire) != seq) return false;
    uint64_t w[kWords];
    for (size_t i = 0; i < kWords; ++i)
      w[i] = s.words[i].load(std::memory_order_acquire);
    const uint64_t check = s.check.load(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != seq ||
        check != checksum(seq, w))
      return false;
    std::memcpy(out, w, sizeof(Payload));
    return true;
  }

  // Lets `fn(Payload&)` amend entry `seq` in place, when the slot still
  // holds it.  Meant for the entry's own writer filling in a result
  // after publication.  A writer that laps the slot during the few
  // stores of the amendment can cost the amended or the lapping entry
  // (the check word keeps the mix from being read), so amended fields
  // must be diagnostic, never counted.
  template <class Fn>
  bool update_if(uint64_t seq, Fn&& fn) {
    Payload p;
    if (!read(seq, &p)) return false;
    fn(p);
    Slot& s = slot(seq);
    uint64_t expect = seq;
    if (!s.seq.compare_exchange_strong(expect, 0, std::memory_order_acquire,
                                       std::memory_order_relaxed))
      return false;
    store_words(s, seq, p);
    s.seq.store(seq, std::memory_order_release);
    return true;
  }

  uint64_t head() const { return head_.load(std::memory_order_acquire); }
  uint64_t capacity() const { return mask_ + 1; }
  // Entries lost to wrap: every push past the first `capacity`.
  uint64_t overwrites() const {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    return h > capacity() ? h - capacity() : 0;
  }
  // Empties the ring.  Not atomic with concurrent pushes: a racing
  // writer's entry may survive or vanish, never tear.
  void reset() {
    for (uint64_t i = 0; i <= mask_; ++i)
      slots_[i].seq.store(0, std::memory_order_release);
    head_.store(0, std::memory_order_relaxed);
  }

 private:
  Slot& slot(uint64_t seq) const { return slots_[(seq - 1) & mask_]; }
  // Independent multiplies, so the hash costs a few cycles, not a chain.
  static uint64_t checksum(uint64_t seq, const uint64_t (&w)[kWords]) {
    uint64_t h = seq * 0x9E3779B97F4A7C15ull;
    [&]<size_t... I>(std::index_sequence<I...>) {
      ((h ^= w[I] * (0xBF58476D1CE4E5B9ull + 2 * I)), ...);
    }(std::make_index_sequence<kWords>());
    return h ^ (h >> 31);
  }
  // Unrolled, so the words go from registers straight to the slot.
  static void store_words(Slot& s, uint64_t seq, const Payload& p) {
    uint64_t w[kWords];
    std::memcpy(w, &p, sizeof(Payload));
    [&]<size_t... I>(std::index_sequence<I...>) {
      (s.words[I].store(w[I], std::memory_order_release), ...);
    }(std::make_index_sequence<kWords>());
    s.check.store(checksum(seq, w), std::memory_order_release);
  }

  std::unique_ptr<Slot[]> slots_;
  uint64_t mask_;
  std::atomic<uint64_t> head_{0};
};

}  // namespace obs
}  // namespace grb
