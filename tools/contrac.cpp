// contrac — the Contra policy compiler, as a command-line tool.
//
//   contrac --policy "minimize((path.len, path.util))" --builtin fat-tree:4
//           [--out <dir>] [--print-pg] [--print-analysis] [--quiet]
//   contrac --policy-file policy.txt --topology topo.txt --out p4/
//
// Prints the compilation report (pids, tags, PG size, analyses, probe period
// rule, per-switch state) and, with --out, writes one P4 program per switch
// plus a MANIFEST.
#include <cstdio>
#include <filesystem>

#include "cli_common.h"
#include "compiler/compiler.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "p4gen/p4gen.h"
#include "util/logging.h"

using namespace contra;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --policy \"minimize(...)\" | --policy-file <path>\n"
               "          [--topology <edge-list file> | --builtin <spec>]\n"
               "          [--out <dir>] [--print-pg] [--print-analysis] [--quiet]\n"
               "          [--allow-non-monotonic]\n"
               "builtin specs: fat-tree:<k>, leaf-spine:<l>x<s>, random:<n>:<seed>,\n"
               "               abilene, ring:<n>, grid:<r>x<c>, diamond\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::init_log_level_from_env();
  const tools::Args args(argc, argv);
  if (args.has("help")) return usage(argv[0]);

  std::string error;
  const auto policy_text = tools::load_policy_text(args, &error);
  if (!policy_text) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(argv[0]);
  }
  const auto topo = tools::load_topology(args, &error);
  if (!topo) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(argv[0]);
  }

  lang::Policy policy;
  try {
    policy = lang::parse_policy(*policy_text);
  } catch (const lang::ParseError& e) {
    std::fprintf(stderr, "policy parse error at offset %zu: %s\n", e.offset(), e.what());
    return 1;
  }

  compiler::CompileOptions options;
  options.require_monotonic = !args.has("allow-non-monotonic");

  compiler::CompileResult result;
  try {
    result = compiler::compile(policy, *topo, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compile error: %s\n", e.what());
    return 1;
  }

  if (!args.has("quiet")) {
    std::printf("policy   : %s\n", lang::to_string(policy).c_str());
    std::printf("topology : %u switches, %u cables\n", topo->num_nodes(),
                topo->num_links() / 2);
    std::printf("compiled : %s\n", result.summary().c_str());
    std::printf("probe period lower bound (0.5 x max RTT): %.3f us\n",
                result.min_probe_period_s * 1e6);
    for (size_t pid = 0; pid < result.decomposition.subpolicies.size(); ++pid) {
      std::printf("  pid %zu minimizes %s\n", pid,
                  result.decomposition.subpolicies[pid].description.c_str());
    }
  }
  if (args.has("print-analysis")) {
    std::printf("monotonicity: %s\n", result.monotonicity.to_string().c_str());
    std::printf("isotonicity : %s\n", result.isotonicity.to_string().c_str());
  }
  if (args.has("print-pg")) {
    std::printf("%s", result.graph.to_string().c_str());
  }

  if (args.has("out")) {
    const std::filesystem::path dir = args.get("out");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create output dir %s: %s\n", dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
    std::string manifest = "# contrac output manifest\n# policy: " +
                           lang::to_string(policy) + "\n";
    for (const auto& cfg : result.switches) {
      const std::string filename = cfg.name + ".p4";
      if (!tools::write_file((dir / filename).string(),
                             p4gen::generate_p4(result, cfg))) {
        std::fprintf(stderr, "cannot write %s\n", (dir / filename).c_str());
        return 1;
      }
      manifest += filename + "  state_bytes=" + std::to_string(cfg.footprint.total_bytes()) +
                  (cfg.is_destination ? "  probe_origin tag=" + std::to_string(cfg.origin_tag)
                                      : "") +
                  "\n";
    }
    tools::write_file((dir / "MANIFEST").string(), manifest);
    if (!args.has("quiet")) {
      std::printf("wrote %zu P4 programs + MANIFEST to %s\n", result.switches.size(),
                  dir.c_str());
    }
  }
  return 0;
}
