// psabench: runs one workload and prints its metrics. Usage:
//
//   psabench --workload corpus_cold|small_units|daemon_edits --seed N
//            --seconds S --trace 0|1 --work DIR [--reference FILE]
//            [--print-digests]
//
// --print-digests writes the run's regression-reference line to stderr.
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics (end-to-end with --trace 0, per-layer with --trace 1). The lines
// before it are a human-readable table.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "checks.hpp"
#include "harness.hpp"

namespace {

/// Combined digest of every unit digest, in unit-name order.
std::string combined(const std::map<std::string, std::string>& digests) {
  std::string text;
  for (const auto& [name, digest] : digests) {
    text += name + "=" + digest + ";";
  }
  return psabench::text_digest(text);
}

/// The regression reference key: workload, seed ("*" where the inputs do
/// not depend on it) and the number of units digested.
std::string reference_key(const psabench::RunConfig& config,
                          std::size_t units) {
  const std::string seed = config.workload == "corpus_cold"
                               ? std::string("*")
                               : std::to_string(config.seed);
  return config.workload + ' ' + seed + ' ' + std::to_string(units);
}

/// Compares with the regression reference: lines "<key> <digest>". Returns
/// a one-line verdict; never affects correctness.
std::string compare_reference(const std::string& path, const std::string& key,
                              const std::string& digest) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.starts_with(key + ' ')) continue;
    const std::string want = line.substr(key.size() + 1);
    return want == digest ? "reference digest matches the seed commit"
                          : "reference digest DIFFERS from the seed commit "
                            "(outputs changed; not a ground-truth failure)";
  }
  return "no reference digest for this workload and seed";
}

std::string json_number(double v) {
  std::ostringstream out;
  out.precision(15);
  out << v;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  psabench::RunConfig config;
  std::string reference;
  bool print_digests = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "psabench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      config.seconds = std::stod(value());
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--work") {
      config.work_dir = value();
    } else if (arg == "--reference") {
      reference = value();
    } else if (arg == "--print-digests") {
      print_digests = true;
    } else {
      std::fprintf(stderr, "psabench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!have_workload || config.work_dir.empty()) {
    std::fprintf(stderr, "psabench: --workload and --work are required\n");
    return 2;
  }

  psabench::RunResult result;
  try {
    result = psabench::run_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psabench: %s\n", e.what());
    return 1;
  }

  const std::string digest = combined(result.digests);
  const std::string key = reference_key(config, result.digests.size());
  if (print_digests) std::cerr << key << ' ' << digest << '\n';
  std::cout << "workload " << config.workload << ", seed " << config.seed
            << ", " << (config.trace ? "traced" : "untraced") << '\n';
  for (const auto& [name, m] : result.metrics) {
    std::cout << "  " << name << " = " << json_number(m.value) << ' '
              << m.unit << '\n';
  }
  for (const auto& [name, m] : result.unbounded) {
    std::cout << "  " << name << " = " << json_number(m.value) << ' '
              << m.unit << " (printed only, no bound)\n";
  }
  std::cout << "  error_rate = "
            << json_number(result.attempted == 0
                               ? 1.0
                               : static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted))
            << " (" << result.failed << " of " << result.attempted << ")\n";
  for (const std::string& note : result.notes) {
    std::cout << "  " << note << '\n';
  }
  if (!reference.empty()) {
    std::cout << "  " << compare_reference(reference, key, digest) << '\n';
  }
  for (const std::string& problem : result.problems) {
    std::cout << "  FAILED CHECK: " << problem << '\n';
  }

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
