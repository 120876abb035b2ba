#include "fingerprint.hh"

#include <fstream>
#include <sstream>
#include <thread>

#include "tensor/isa.hh"
#include "util/alloc_guard.hh"
#include "util/parallel.hh"

namespace servebench {

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
escaped(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

std::string
fingerprintJson(const std::string &workload, std::uint64_t seed,
                const std::string &revision, bool trace)
{
    const std::string flags = SB_LIB_FLAGS;
#ifdef NDEBUG
    const bool harness_ndebug = true;
#else
    const bool harness_ndebug = false;
#endif
    std::ostringstream os;
    os << "{\"workload\":\"" << escaped(workload) << "\",\"seed\":" << seed
       << ",\"trace\":" << (trace ? "true" : "false")
       << ",\"cpu\":\"" << escaped(cpuModel()) << "\""
       << ",\"isa\":\"" << leca::activeKernels().name << "\""
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"leca_threads\":" << leca::threadCount()
       << ",\"compiler\":\"" << escaped(SB_COMPILER) << "\""
       << ",\"build_type\":\"" << SB_BUILD_TYPE << "\""
       << ",\"lib_flags\":\"" << escaped(flags) << "\""
       << ",\"lib_ndebug\":"
       << (flags.find("-DNDEBUG") != std::string::npos ? "true" : "false")
       << ",\"harness_ndebug\":" << (harness_ndebug ? "true" : "false")
       << ",\"alloc_guard\":"
       << (leca::allocGuardEnabled() ? "true" : "false")
       << ",\"revision\":\"" << escaped(revision) << "\"}";
    return os.str();
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

} // namespace servebench
