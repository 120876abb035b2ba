/**
 * @file
 * Run fingerprint printed with every report: what ran, where, and how
 * it was built.
 */

#ifndef SERVEBENCH_FINGERPRINT_HH
#define SERVEBENCH_FINGERPRINT_HH

#include <cstdint>
#include <string>

namespace servebench {

/**
 * One-line JSON object with the CPU model, the dispatched kernel ISA,
 * nproc, LECA_THREADS (the pool's actual width), compiler, build type
 * and library flags (and whether they define NDEBUG), the allocation
 * guard, the source revision (@p revision, supplied by the launcher)
 * and the seed.
 */
std::string fingerprintJson(const std::string &workload, std::uint64_t seed,
                            const std::string &revision, bool trace);

/** Peak resident set size of this process (VmHWM) in MiB; 0 if unknown. */
double peakRssMb();

} // namespace servebench

#endif // SERVEBENCH_FINGERPRINT_HH
