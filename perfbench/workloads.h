#ifndef PCCHECK_PERFBENCH_WORKLOADS_H_
#define PCCHECK_PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The benchmark's three workloads. Each builds its inputs from the
 * seed, runs the shipped configuration (CRC on, persistence sanitizer
 * off, every bandwidth throttle at 0, MemStorage media), verifies the
 * recovered images, and returns every metric it measured.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace pcbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

struct Metric {
    std::string name;  ///< printed name (e.g. stall_p90_ms)
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0;  ///< observations behind the value
    /** Name in the result line; empty = printed only. */
    std::string key;
};

struct Report {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Why `correct` is false or `failed` is nonzero. */
    std::vector<std::string> problems;
    /** Measurement caveats printed with the metrics. */
    std::vector<std::string> notes;
    /** End-to-end metrics (untraced run). */
    std::vector<Metric> end_to_end;
    /** Per-layer metrics measured in the traced run. */
    std::vector<Metric> per_layer;

    /** @p key names the metric in the result line (default: @p name). */
    void add_e2e(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples,
                 const std::string& key = "")
    {
        end_to_end.push_back(
            {name, value, unit, samples, key.empty() ? name : key});
    }
    /** An end-to-end view printed with the metrics, not in the result
     *  line. */
    void add_printed(const std::string& name, double value,
                     const std::string& unit, std::uint64_t samples)
    {
        end_to_end.push_back({name, value, unit, samples, ""});
    }
    void add_layer(const std::string& name, double value,
                   const std::string& unit, std::uint64_t samples = 1)
    {
        per_layer.push_back({name, value, unit, samples, name});
    }
    /** Count @p n failed operations (aborts, skips, refusals). */
    void count_failures(std::uint64_t n, const std::string& why)
    {
        if (n > 0) {
            failed += n;
            problems.push_back(std::to_string(n) + " " + why);
        }
    }
    /** A recovered image or watermark did not check out. */
    void mismatch(const std::string& why)
    {
        correct = false;
        ++failed;
        problems.push_back(why);
    }
};

/** Run one workload; throws std::invalid_argument on an unknown
 *  name. */
Report run_workload(const Options& options);

}  // namespace pcbench

#endif  // PCCHECK_PERFBENCH_WORKLOADS_H_
