/**
 * @file
 * servebench: the served-frame benchmark binary.
 *
 *   servebench --workload NAME --seed N --seconds S --trace 0|1
 *              [--revision TEXT] [--out DIR]
 *
 * Prints a human-readable report, then the result object as the last
 * line of stdout. Exits 1 when any served output or training loss is
 * wrong, 2 on bad arguments. See servebench/README.md.
 */

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "serve_workload.hh"
#include "train_workload.hh"

namespace {

int
usage(const char *why)
{
    std::cerr << "servebench: " << why
              << "\nusage: servebench --workload "
                 "serve_int8_full48|serve_tiny_fp32|train_proxy24 "
                 "--seed N --seconds S --trace 0|1 [--revision TEXT] "
                 "[--out DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, revision = "unknown", out_dir = ".";
    long long seed = -1;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            seed = std::strtoll(value, &end, 10);
            if (*end || seed < 0)
                return usage("--seed must be a non-negative integer");
        } else if (flag == "--seconds") {
            seconds = std::strtod(value, &end);
            if (*end || !(seconds > 0.0) || seconds > 600.0)
                return usage("--seconds must be in (0, 600]");
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") && std::strcmp(value, "1"))
                return usage("--trace must be 0 or 1");
            trace = value[0] - '0';
        } else if (flag == "--revision") {
            revision = value;
        } else if (flag == "--out") {
            out_dir = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (workload.empty() || seed < 0 || seconds < 0.0 || trace < 0)
        return usage("--workload, --seed, --seconds and --trace are required");

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const auto useed = static_cast<std::uint64_t>(seed);
    try {
        if (const servebench::ServeSpec *spec =
                servebench::findServeSpec(workload))
            return servebench::runServeWorkload(*spec, useed, seconds,
                                                trace == 1, revision, out_dir);
        if (workload == servebench::kTrainWorkload)
            return servebench::runTrainWorkload(useed, seconds, trace == 1,
                                                revision, out_dir);
    } catch (const std::exception &e) {
        std::cerr << "servebench: " << workload << " failed: " << e.what()
                  << "\n";
        return 4;
    }
    return usage(("unknown workload " + workload).c_str());
}
