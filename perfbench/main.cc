/**
 * @file
 * pcbench: the PCcheck performance benchmark driver.
 *
 *   pcbench --workload full|delta|fleet --seed N --seconds S --trace 0|1
 *           [--trace-out FILE]
 *
 * Prints every metric by name with its unit and sample count, then, as
 * the last line, one JSON object with every measured value (run.py
 * turns it into the benchmark's result line). With --trace 1 the
 * program's Tracer is enabled for a bounded window and, given
 * --trace-out, written as Chrome trace JSON for the per-layer
 * analysis. Exits non-zero on bad arguments or an internal error.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/trace.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: pcbench --workload full|delta|fleet --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
}

std::string
json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out.push_back(' ');
        } else {
            out.push_back(c);
        }
    }
    return out + "\"";
}

void
print_metrics(const char* title,
              const std::vector<pcbench::Metric>& metrics)
{
    std::printf("%s\n", title);
    for (const pcbench::Metric& m : metrics) {
        std::printf("  %-36s %16.6f %-6s n=%llu\n", m.name.c_str(), m.value,
                    m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    }
}

std::string
metrics_json(const std::vector<pcbench::Metric>& metrics)
{
    std::string out = "{";
    char buf[64];
    bool first = true;
    for (const pcbench::Metric& m : metrics) {
        if (m.key.empty()) {
            continue;
        }
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        out += (first ? "" : ", ") + json_string(m.key) +
               ": {\"value\": " + buf + ", \"unit\": " +
               json_string(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
        first = false;
    }
    return out + "}";
}

}  // namespace

int
main(int argc, char** argv)
{
    pcbench::Options options;
    std::string trace_out;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const std::string value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), nullptr);
        } else if (arg == "--trace") {
            options.trace = value == "1";
        } else if (arg == "--trace-out") {
            trace_out = value;
        } else {
            usage();
            return 2;
        }
    }
    if (!have_workload || !(options.seconds > 0)) {
        usage();
        return 2;
    }
    pccheck::set_log_level(pccheck::LogLevel::kWarn);

    const char* psan_env = std::getenv("PCCHECK_PSAN");
    std::printf("pcbench workload=%s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::printf("config: compute_crc=1 psan=0 (PCCHECK_PSAN=%s ignored) "
                "gpu.pcie_bytes_per_sec=0 per_writer_bytes_per_sec=0 "
                "storage=MemStorage\n",
                psan_env != nullptr ? psan_env : "unset");

    pcbench::Report report;
    try {
        report = pcbench::run_workload(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pcbench: %s\n", e.what());
        return 1;
    }

    if (options.trace) {
        pccheck::Tracer& tracer = pccheck::Tracer::global();
        report.add_layer("trace.events",
                         static_cast<double>(tracer.event_count()), "count");
        report.add_layer("trace.dropped",
                         static_cast<double>(tracer.dropped_count()),
                         "count");
        if (!trace_out.empty() && !tracer.write_file(trace_out)) {
            std::fprintf(stderr, "pcbench: cannot write %s\n",
                         trace_out.c_str());
            return 1;
        }
    }

    print_metrics("end-to-end:", report.end_to_end);
    if (options.trace) {
        print_metrics("per-layer (traced window):", report.per_layer);
    }
    std::printf("  %-36s %16.6f %-6s n=%llu (failed %llu)\n", "fail_frac",
                report.attempted > 0
                    ? static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted)
                    : 0.0,
                "ratio", static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (const std::string& note : report.notes) {
        std::printf("note: %s\n", note.c_str());
    }
    for (const std::string& problem : report.problems) {
        std::printf("problem: %s\n", problem.c_str());
    }

    std::string problems = "[";
    for (std::size_t i = 0; i < report.problems.size(); ++i) {
        problems += (i > 0 ? ", " : "") + json_string(report.problems[i]);
    }
    problems += "]";
    std::printf("{\"workload\": %s, \"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"problems\": %s, \"end_to_end\": %s, "
                "\"per_layer\": %s}\n",
                json_string(options.workload).c_str(),
                report.correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                problems.c_str(), metrics_json(report.end_to_end).c_str(),
                metrics_json(report.per_layer).c_str());
    return 0;
}
