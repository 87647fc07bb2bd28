// Deterministic pseudo-random number generation.
//
// Every stochastic component in VAQ (synthetic videos, simulated detectors)
// takes an explicit 64-bit seed and derives its randomness from `Rng`, a
// xoshiro256** engine seeded via SplitMix64. Results are reproducible
// bit-for-bit across platforms; the C++ standard library distributions are
// deliberately avoided because their outputs are implementation-defined.
#ifndef VAQ_COMMON_RNG_H_
#define VAQ_COMMON_RNG_H_

#include <cstdint>
#include <cmath>
#include <string_view>

#include "common/logging.h"

namespace vaq {

// SplitMix64 step: advances `state` and returns the next 64-bit output.
// Used for seeding and for cheap stateless hashing of stream offsets.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Mixes two 64-bit values into one; used to derive independent sub-seeds
// (e.g. one per object type) from a master seed.
inline uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return SplitMix64(s);
}

// FNV-1a over bytes: the platform-stable hash used wherever bytes must
// map to the same 64-bit value on every build — cluster partitioning,
// per-video RNG stream salts, proxy-index fingerprints and the checkpoint
// record checksum (pinned by tests/golden/ckpt_format_v1.hex) all ride
// on it, so the constants must never change.
inline uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

// xoshiro256** generator with distribution helpers.
class Rng {
 public:
  // The state is drawn from `seed` by SplitMix64.
  explicit Rng(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  // Next raw 64-bit output.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  // Uniform integer in [0, bound). `bound` must be positive. Uses rejection
  // to avoid modulo bias.
  uint64_t UniformInt(uint64_t bound) {
    VAQ_CHECK_GT(bound, 0u);
    const uint64_t threshold = -bound % bound;  // 2^64 mod bound
    for (;;) {
      const uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    VAQ_CHECK_LE(lo, hi);
    return lo + static_cast<int64_t>(
                    UniformInt(static_cast<uint64_t>(hi - lo) + 1));
  }

  // Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  // Standard normal via Box-Muller (no cached spare: keeps state minimal and
  // reproducible regardless of call interleaving).
  double Normal() {
    double u1 = UniformDouble();
    while (u1 <= 0.0) u1 = UniformDouble();
    const double u2 = UniformDouble();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(6.283185307179586476925286766559 * u2);
  }

  // Exponential with rate `lambda` (> 0).
  double Exponential(double lambda) {
    VAQ_CHECK_GT(lambda, 0.0);
    double u = UniformDouble();
    while (u <= 0.0) u = UniformDouble();
    return -std::log(u) / lambda;
  }

  // Gamma(shape, scale) via Marsaglia-Tsang; shape > 0, scale > 0.
  double Gamma(double shape, double scale);

  // Beta(alpha, beta) via two Gamma draws; alpha, beta > 0.
  double Beta(double alpha, double beta);

  // Geometric: number of failures before the first success, p in (0, 1].
  int64_t Geometric(double p);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

// A family of deterministic sibling RNG streams derived from one master
// seed and a per-subsystem salt. Stream `entity`'s seed is
// MixSeed(MixSeed(master, salt), entity), so adding, removing, or
// reordering *other* entities never moves an existing entity's stream, and
// two families with distinct salts are independent even under the same
// master seed. Shared by traffic:: (per-tenant arrival streams) and bai::
// (per-arm pull streams); use a fresh salt per consumer.
class StreamFamily {
 public:
  StreamFamily(uint64_t master_seed, uint64_t salt)
      : family_seed_(MixSeed(master_seed, salt)) {}

  // The 64-bit seed of `entity`'s stream (for callers that store seeds).
  uint64_t StreamSeed(uint64_t entity) const {
    return MixSeed(family_seed_, entity);
  }

  // A freshly-seeded generator positioned at the start of `entity`'s
  // stream.
  Rng Stream(uint64_t entity) const { return Rng(StreamSeed(entity)); }

  // Convenience for string-keyed entities (video names, tenants).
  uint64_t StreamSeed(std::string_view entity) const {
    return StreamSeed(HashBytes(entity));
  }
  Rng Stream(std::string_view entity) const {
    return Rng(StreamSeed(entity));
  }

 private:
  uint64_t family_seed_;
};

}  // namespace vaq

#endif  // VAQ_COMMON_RNG_H_
