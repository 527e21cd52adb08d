// Probe layer: every bucket/link-chain probe in the table funnels through
// the helpers in this header, so slot matching is one measurable component
// instead of logic inlined into dlht.hpp.
//
// Two engines share one contract — "given a header word (and, batched,
// eight of them) plus a lookup fingerprint, return the 3-bit candidate-slot
// mask" — and differ only in how many headers they match per instruction:
//
//   SWAR     portable baseline: one XOR + zero-byte trick over the 24
//            fingerprint bits of a single header word. No ISA requirement;
//            this path must always exist (non-AVX2 hosts, the scalar ops,
//            and the fallback lanes of the SIMD pipeline).
//   AVX2     batched pipeline only: 8 prefetched headers are matched at
//            once — broadcast each lookup fingerprint across its lane,
//            _mm256_cmpeq_epi8 against the header bytes, fold in the
//            valid-state test in vector registers, movemask to per-key
//            candidate bitsets. Link-chain scans vectorize the same way
//            because chained lanes re-enter the next 8-wide sweep.
//
// The engine is a fact of the host, not a setting: a table runs AVX2 when
// cpuid reports it (host_has_avx2(), checked once at construction, never
// per probe) and SWAR otherwise. The simd_probe and fingerprints ablations
// (DLHT_ABLATION=nosimd / nofp) are the only way to force SWAR. A 512-bit
// (zmm) kernel was measured equal to AVX2 and deleted (docs/ARCHITECTURE.md).
//
// The AVX2 kernel carries a function-level target attribute, so this
// header builds with a baseline -march and one binary runs on any x86-64
// host (CMake passes -march=native only when DLHT_NATIVE=1 opts in).
//
// Fingerprints: fp_of(h) mixes the two topmost hash bytes (h>>48 ^ h>>56).
// The bucket index comes from the *low* hash bits, so the fingerprint byte
// range stays disjoint from the bin selector for any table below 2^48 bins
// — within one bucket, candidates are an unbiased 1/256 filter instead of
// aliasing the index. dlht_test asserts the false-positive rate empirically
// (< 2/256 per probe at 1M keys).
#pragma once

#include <cstdint>

#include "dlht/bucket.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define DLHT_X86_SIMD 1
#include <immintrin.h>
#else
#define DLHT_X86_SIMD 0
#endif

namespace dlht {
namespace probe {

/// True when the running CPU can execute the AVX2 batch kernel.
inline bool host_has_avx2() {
#if DLHT_X86_SIMD
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// Slot fingerprint for a hash: the two topmost bytes mixed together —
/// disjoint from the low bits that pick the bucket (see header comment).
constexpr std::uint8_t fp_of(std::uint64_t h) {
  return static_cast<std::uint8_t>((h >> 48) ^ (h >> 56));
}

// ------------------------------------------------------ SWAR baseline
//
// All helpers return normalized 3-bit masks: bit i set <=> slot i.

/// Slots whose header fingerprint byte equals fp (state ignored): one XOR
/// + zero-byte test matches all three fingerprints branch-free.
constexpr std::uint32_t fp_matches(std::uint64_t header, std::uint8_t fp) {
  const std::uint32_t fps = static_cast<std::uint32_t>(header) & 0xffffffu;
  const std::uint32_t x = fps ^ (0x010101u * fp);
  const std::uint32_t m = (x - 0x010101u) & ~x & 0x808080u;
  return ((m >> 7) | (m >> 14) | (m >> 21)) & 7u;
}

namespace detail {
// The 2-bit slot states live at header bits [24..29]; `pick` receives the
// six state bits and must leave bit 2i set iff slot i qualifies.
constexpr std::uint32_t compress_states(std::uint32_t bits2i) {
  return (bits2i & 1u) | ((bits2i >> 1) & 2u) | ((bits2i >> 2) & 4u);
}
}  // namespace detail

/// Slots in state kValid (2-bit state == 01): readable by Gets.
constexpr std::uint32_t valid_slots(std::uint64_t header) {
  const std::uint32_t st = static_cast<std::uint32_t>(header >> 24) & 0x3fu;
  return detail::compress_states(st & ~(st >> 1) & 0x15u);
}

/// Slots in state kShadow (== 10): reserved, not yet visible to Gets.
constexpr std::uint32_t shadow_slots(std::uint64_t header) {
  const std::uint32_t st = static_cast<std::uint32_t>(header >> 24) & 0x3fu;
  return detail::compress_states((st >> 1) & ~st & 0x15u);
}

/// Slots holding an entry in either state (valid or shadow).
constexpr std::uint32_t occupied_slots(std::uint64_t header) {
  const std::uint32_t st = static_cast<std::uint32_t>(header >> 24) & 0x3fu;
  return detail::compress_states((st | (st >> 1)) & 0x15u);
}

/// Fingerprint matches restricted to readable (kValid) slots — the Get
/// probe's candidate set.
constexpr std::uint32_t match_valid(std::uint64_t header, std::uint8_t fp) {
  return fp_matches(header, fp) & valid_slots(header);
}

// Raw byte-granularity forms (bit 8i+7 = slot i): the scalar Get probe is
// the hottest loop in the system, and compressing candidates down to the
// normalized 3-bit shape costs ~6 ALU ops it never needed — it can peel
// slots straight off the SWAR byte mask with `ctz >> 3`. Kept alongside
// the normalized helpers (same candidate sets, probe_equivalence_test
// cross-checks them) because the vector kernel's packed contract wants
// the dense form.

constexpr std::uint32_t fp_matches_raw(std::uint64_t header,
                                       std::uint8_t fp) {
  const std::uint32_t fps = static_cast<std::uint32_t>(header) & 0xffffffu;
  const std::uint32_t x = fps ^ (0x010101u * fp);
  return (x - 0x010101u) & ~x & 0x808080u;
}

constexpr std::uint32_t valid_slots_raw(std::uint64_t header) {
  const std::uint32_t st = static_cast<std::uint32_t>(header >> 24) & 0x3fu;
  const std::uint32_t v = st & ~(st >> 1) & 0x15u;  // bit 2i per valid slot
  return ((v & 1u) << 7) | ((v & 4u) << 13) | ((v & 16u) << 19);
}

constexpr std::uint32_t match_valid_raw(std::uint64_t header,
                                        std::uint8_t fp) {
  return fp_matches_raw(header, fp) & valid_slots_raw(header);
}

// ---------------------------------------------------- AVX2 batch kernel
//
// Contract: given the low dwords of 8 header words plus 8 lookup
// fingerprints packed into one uint64 (byte j = lane j's fp), return a
// packed candidate mask whose bits [4j .. 4j+2] are
// match_valid(headers[j], fp_j) — the caller peels lane j's 3-bit mask
// with `(mask >> 4*j) & 7`. The packed in/out shapes matter: the batched
// sweep gathers headers as individual 64-bit loads and ORs fingerprints
// into a register, so both go straight into vector registers — no
// byte-array round-trips on either side.
// Lock/migrated bits do NOT affect the result (they live in state-byte
// bits the kernel masks off); callers must check them per lane before
// trusting a candidate set, exactly as the scalar path does.

#if DLHT_X86_SIMD

/// Matching only reads the low 32 bits of each header (3 fp bytes + the
/// state byte), so all eight lanes fit one ymm: hlo's dword j = low dword
/// of header j. The result is the compact 4-bit-stride mask that
/// vpmovmskb naturally yields in this layout. Callers that already hold
/// the headers in scalar registers should pack dword pairs (pack_lo_pair)
/// and build hlo with _mm256_set_epi64x — routing the headers through a
/// stack array invites the compiler to coalesce the reads into one 32B
/// load over eight 8B stores, which store-forwarding cannot satisfy (~20
/// stall cycles per group, silently eating the kernel's whole advantage).
__attribute__((target("avx2"))) inline std::uint32_t match_valid_x8v_avx2(
    __m256i hlo, std::uint64_t fps) {
  // Dword j of fv: lane j's fp in bytes 0-2, zero in byte 3. The broadcast
  // puts all 8 fp bytes in both 128-bit halves, so one shuffle control
  // (low half picks bytes 0-3, high half 4-7) fans them out.
  const __m256i fall = _mm256_broadcastq_epi64(
      _mm_cvtsi64_si128(static_cast<long long>(fps)));
  const __m256i fctl = _mm256_setr_epi8(
      0, 0, 0, -0x80, 1, 1, 1, -0x80, 2, 2, 2, -0x80, 3, 3, 3, -0x80,  //
      4, 4, 4, -0x80, 5, 5, 5, -0x80, 6, 6, 6, -0x80, 7, 7, 7, -0x80);
  const __m256i eq = _mm256_cmpeq_epi8(hlo, _mm256_shuffle_epi8(fall, fctl));
  // Valid-state bytes: replicate each lane's state byte (byte 3 of its
  // dword) across bytes 0-2, isolate slot i's 2-bit state in byte i, and
  // compare against the kValid pattern. Byte 3 compares a masked-to-zero
  // value against 0x80, so it can never survive into the mask (it would
  // otherwise match when an empty unlocked header's state byte is 0).
  const __m256i sctl = _mm256_setr_epi8(
      3, 3, 3, -0x80, 7, 7, 7, -0x80, 11, 11, 11, -0x80, 15, 15, 15, -0x80,
      3, 3, 3, -0x80, 7, 7, 7, -0x80, 11, 11, 11, -0x80, 15, 15, 15, -0x80);
  const __m256i bitsel = _mm256_setr_epi8(
      0x03, 0x0c, 0x30, 0, 0x03, 0x0c, 0x30, 0, 0x03, 0x0c, 0x30, 0,  //
      0x03, 0x0c, 0x30, 0, 0x03, 0x0c, 0x30, 0, 0x03, 0x0c, 0x30, 0,  //
      0x03, 0x0c, 0x30, 0, 0x03, 0x0c, 0x30, 0);
  const __m256i vpat = _mm256_setr_epi8(
      0x01, 0x04, 0x10, -0x80, 0x01, 0x04, 0x10, -0x80,  //
      0x01, 0x04, 0x10, -0x80, 0x01, 0x04, 0x10, -0x80,  //
      0x01, 0x04, 0x10, -0x80, 0x01, 0x04, 0x10, -0x80,  //
      0x01, 0x04, 0x10, -0x80, 0x01, 0x04, 0x10, -0x80);
  const __m256i st = _mm256_shuffle_epi8(hlo, sctl);
  const __m256i va = _mm256_cmpeq_epi8(_mm256_and_si256(st, bitsel), vpat);
  return static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_and_si256(eq, va)));
}

/// Pack the low dwords of two headers for match_valid_x8v_avx2's input.
constexpr std::uint64_t pack_lo_pair(std::uint64_t even, std::uint64_t odd) {
  return (even & 0xffffffffu) | (odd << 32);
}

#endif  // DLHT_X86_SIMD

}  // namespace probe
}  // namespace dlht
