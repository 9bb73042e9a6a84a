// geofm benchmark binary. Usually started through run.py, which
// builds it and checks its output against BENCHMARK.json:
//
//   geofm_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> --workdir <dir> [--references <file>]
//                   [--plant wrong_embedding|loss_mismatch]
//                   [--elastic-probe 1]
//
// Prints human-readable lines, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 0 only when every
// correctness check passed. --elastic-probe 1 instead runs one elastic
// run of pretrain_fsdp4 and prints its result line; the timed
// pretrain_fsdp4 run starts the binary that way in child processes.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr double kWarmSeconds = 2.0;

int usage(const char* why) {
  std::fprintf(stderr, "geofm_perfbench: %s\n", why);
  return 2;
}

// references file: one "<workload> <seed> <final loss>" per line; '#'
// starts a comment.
void load_references(const std::string& path, Args& args) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    unsigned long long seed = 0;
    double loss = 0;
    if (!(fields >> workload >> seed >> loss)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    args.reference_losses[{workload, seed}] = loss;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string references;
  bool elastic_probe = false;
  if (argc % 2 == 0) return usage("every option takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--references") {
      references = value;
    } else if (key == "--elastic-probe") {
      elastic_probe = value == "1";
    } else if (key == "--plant") {
      if (value == "wrong_embedding") {
        args.plant = Plant::kWrongEmbedding;
      } else if (value == "loss_mismatch") {
        args.plant = Plant::kLossMismatch;
      } else {
        return usage("unknown --plant");
      }
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workdir.empty()) return usage("--workdir is required");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");
  try {
    if (!references.empty()) load_references(references, args);
    std::filesystem::create_directories(args.workdir);
    if (elastic_probe) {
      run_elastic_probe(args);
      return 0;
    }
    warm_cpus(kWarmSeconds);
    Outcome out;
    if (args.workload == "pretrain_1rank") {
      out = run_pretrain_1rank(args);
    } else if (args.workload == "pretrain_fsdp4") {
      out = run_pretrain_fsdp4(args);
    } else if (args.workload == "serve_hotswap") {
      out = run_serve_hotswap(args);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
    for (const std::string& p : out.problems) {
      std::printf("  CHECK FAILED: %s\n", p.c_str());
    }
    std::printf("%s\n", out.json().c_str());
    std::fflush(stdout);
    return out.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "geofm_perfbench: %s\n", e.what());
    return 3;
  }
}
