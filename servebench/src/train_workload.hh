/**
 * @file
 * Training workload: LeCA encoder+decoder steps against a frozen Proxy
 * backbone, closed loop, in fixed-length rounds that restart from the
 * same initial state so every round's losses must repeat bit for bit.
 */

#ifndef SERVEBENCH_TRAIN_WORKLOAD_HH
#define SERVEBENCH_TRAIN_WORKLOAD_HH

#include <cstdint>
#include <string>

namespace servebench {

inline constexpr const char *kTrainWorkload = "train_proxy24";

/** Run the training workload; returns the process exit code. */
int runTrainWorkload(std::uint64_t seed, double seconds, bool trace,
                     const std::string &revision, const std::string &out_dir);

} // namespace servebench

#endif // SERVEBENCH_TRAIN_WORKLOAD_HH
