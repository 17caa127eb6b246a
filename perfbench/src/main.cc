// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             --refs <dir> [--trace-out <file>]
//   perfbench --regen-refs --refs <dir>
//
// Human-readable lines start with '#'.  The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the metrics are the
// end-to-end set without --trace and the per-layer set with --trace 1.

#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

int
usage(const char* why)
{
    std::fprintf(stderr, "perfbench: %s\n", why);
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::BenchOptions opt;
    bool regen = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument(arg + " needs a value");
            }
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opt.workload = value();
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value());
            } else if (arg == "--trace") {
                opt.trace = value() != "0";
            } else if (arg == "--refs") {
                opt.refs_dir = value();
            } else if (arg == "--trace-out") {
                opt.trace_path = value();
            } else if (arg == "--regen-refs") {
                regen = true;
            } else {
                return usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::exception& e) {
            return usage(e.what());
        }
    }
    if (opt.refs_dir.empty()) {
        return usage("--refs is required");
    }
    if (regen) {
        return perfbench::regenerate_references(opt.refs_dir) == 0 ? 0 : 1;
    }
    if (!(opt.seconds > 0.0)) {
        return usage("--seconds must be positive");
    }

    perfbench::BenchResult res;
    try {
        res = perfbench::run_workload(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    const auto& metrics = opt.trace ? res.per_layer : res.end_to_end;
    for (const perfbench::Metric& m : res.end_to_end) {
        std::printf("# end-to-end %-38s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    for (const perfbench::Metric& m : res.per_layer) {
        std::printf("# per-layer  %-38s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("# failed_frac %.6g (%llu failed / %llu attempted), seed %llu\n",
                res.attempted == 0 ? 0.0
                                   : static_cast<double>(res.failed) /
                                         static_cast<double>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(opt.seed));
    for (const perfbench::Metric& m : metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
