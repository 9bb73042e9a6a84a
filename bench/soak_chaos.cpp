// Time-budgeted chaos soak: seeded campaigns through the full stack.
//
// Each campaign is one end-to-end scenario: `chaos::generate_campaign`
// draws a correlated multi-subsystem fault schedule (rank kills, stalls,
// torn/slow checkpoint IO, loader worker deaths, hung renders, poisoned
// samples), `train::run_elastic` runs a small MAE pretraining through it
// with a checkpoint mirror attached, a `serve::ModelServer` is then
// pointed at the publish roots and flooded per the campaign's overload
// schedule — and `chaos::check_invariants` audits the wreckage: futures
// conserved, publications atomic, recovery bounded and bitwise,
// postmortems present and replayable.
//
// The runner keeps starting campaigns (seed, seed+1, ...) until the
// wall-clock budget expires, so "soak longer" is one flag, and any
// violation is replayable from the printed campaign seed alone. Exit is
// nonzero iff any invariant was violated — CI-gateable.
//
//   soak_chaos [--seconds N] [--campaigns N] [--seed S]
//
//   --seconds    wall-clock budget; no new campaign starts after it
//                expires (default 60; at least one campaign always runs)
//   --campaigns  hard cap on campaigns (0 = budget-limited only)
//   --seed       base campaign seed (campaign i uses seed + i)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/invariants.hpp"
#include "ckpt/checkpoint.hpp"
#include "data/datasets.hpp"
#include "models/mae.hpp"
#include "parallel/fsdp.hpp"
#include "serve/server.hpp"
#include "train/elastic.hpp"
#include "util/common.hpp"

namespace {

namespace fs = std::filesystem;
using geofm::i64;
using geofm::u64;

geofm::models::MaeConfig soak_mae_cfg() {
  geofm::models::ViTConfig enc{.name = "t", .width = 16, .depth = 3,
                               .mlp_dim = 32, .heads = 2, .img_size = 16,
                               .patch_size = 4, .in_channels = 3};
  return geofm::models::mae_for(enc);
}

geofm::train::ElasticConfig soak_elastic_config(const std::string& primary,
                                                const std::string& mirror) {
  geofm::train::ElasticConfig cfg;
  cfg.model = soak_mae_cfg();
  cfg.model_seed = 42;
  cfg.world = 4;
  cfg.fsdp.strategy = geofm::parallel::ShardingStrategy::kFullShard;
  cfg.train.steps = 8;
  cfg.train.global_batch = 12;  // divides 4, 3, and 2 — shrink-friendly
  cfg.train.lr = 1e-3;
  cfg.train.seed = 5;
  cfg.train.loader_workers = 2;  // loader faults need workers to kill
  cfg.train.verbose = false;
  cfg.train.checkpoint_every_n_steps = 3;
  cfg.train.checkpoint_dir = primary;
  cfg.train.async_checkpoint = false;
  // Injected IO faults must degrade the run, not kill it: a failed save
  // is skipped (counted), and the mirror keeps whatever last verified.
  cfg.train.tolerate_checkpoint_failures = true;
  cfg.train.upload.source = primary;
  cfg.train.upload.destination = mirror;
  cfg.train.upload.max_retries = 3;
  cfg.train.upload.initial_backoff_seconds = 0.01;
  cfg.train.upload.max_backoff_seconds = 0.05;
  return cfg;
}

/// Floods the serving tier per the campaign's overload schedule and
/// counts every issued/resolved future for the futures-conserved audit.
geofm::chaos::ServeAudit flood_server(const geofm::chaos::Campaign& campaign,
                                      const std::string& primary,
                                      const std::string& mirror) {
  namespace serve = geofm::serve;
  geofm::chaos::ServeAudit audit;

  serve::ServerConfig scfg;
  scfg.checkpoint_root = primary;
  scfg.checkpoint_sources = {primary, mirror};
  scfg.model = soak_mae_cfg();
  scfg.max_batch = 4;
  scfg.max_delay_us = 500;
  scfg.max_queue = 8;  // small on purpose: overload bursts must shed
  scfg.cache_capacity = 64;
  scfg.poll_interval_seconds = 0.02;
  scfg.allow_degraded_start = true;  // a fault-storm run may publish nothing
  scfg.tenant_weights = {{"soak-heavy", 3.0}, {"soak-light", 1.0}};
  serve::ModelServer server(scfg);

  const auto& e = scfg.model.encoder;
  // Requests carry a tenant (that is what fair-share arbitrates on), and
  // a tenant request without a registered head is a caller error — so
  // register a tiny probe head per soak tenant.
  for (const auto& [tenant, weight] : scfg.tenant_weights) {
    (void)weight;
    geofm::Rng hr(campaign.seed ^ std::hash<std::string>{}(tenant));
    server.heads().put(tenant, std::make_unique<geofm::nn::Linear>(
                                   "soak." + tenant, e.width, 4, hr));
  }
  const size_t bursts =
      campaign.overload_steps.empty() ? 1 : campaign.overload_steps.size();
  for (size_t b = 0; b < bursts; ++b) {
    std::vector<std::future<serve::EmbedResult>> futs;
    for (i64 r = 0; r < geofm::chaos::kOverloadRequests; ++r) {
      geofm::Rng rng(campaign.seed ^ (u64(b) << 32) ^ u64(r));
      serve::EmbedRequest req;
      req.image = geofm::Tensor::randn(
          {e.in_channels, e.img_size, e.img_size}, rng, 0.5f);
      req.tenant = (r % 4 == 0) ? "soak-light" : "soak-heavy";
      req.lane = (r % 8 == 0) ? serve::Lane::kInteractive : serve::Lane::kBulk;
      futs.push_back(server.submit(std::move(req)));
      audit.issued += 1;
    }
    for (auto& f : futs) {
      try {
        f.get();
        audit.resolved += 1;
      } catch (const geofm::Error&) {
        audit.resolved += 1;  // a typed shed IS a resolution
      }
    }
  }
  server.stop();
  audit.stats = server.stats();
  return audit;
}

i64 parse_i64(const char* s, const char* flag) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 0);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "soak_chaos: bad value for %s: %s\n", flag, s);
    std::exit(2);
  }
  return static_cast<i64>(v);
}

}  // namespace

int main(int argc, char** argv) {
  double budget_seconds = 60.0;
  i64 max_campaigns = 0;  // 0 = budget-limited only
  u64 base_seed = 0xc4a05ULL;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "soak_chaos: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seconds") == 0) {
      budget_seconds = static_cast<double>(parse_i64(need("--seconds"),
                                                     "--seconds"));
    } else if (std::strcmp(argv[i], "--campaigns") == 0) {
      max_campaigns = parse_i64(need("--campaigns"), "--campaigns");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      base_seed = static_cast<u64>(parse_i64(need("--seed"), "--seed"));
    } else {
      std::fprintf(stderr,
                   "usage: soak_chaos [--seconds N] [--campaigns N] "
                   "[--seed S]\n");
      return 2;
    }
  }

  const auto corpus = geofm::data::million_aid_pretrain(64, 16);
  const std::string soak_root =
      "/tmp/geofm_soak_" + std::to_string(base_seed);
  fs::remove_all(soak_root);

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  i64 ran = 0;
  i64 failed = 0;
  while ((ran == 0 || elapsed() < budget_seconds) &&
         (max_campaigns == 0 || ran < max_campaigns)) {
    const u64 seed = base_seed + static_cast<u64>(ran);
    const std::string dir = soak_root + "/campaign_" + std::to_string(seed);
    const std::string primary = dir + "/primary";
    const std::string mirror = dir + "/mirror";
    fs::create_directories(primary);
    geofm::ckpt::reset_save_state(primary);

    geofm::chaos::CampaignConfig ccfg;
    ccfg.seed = seed;
    ccfg.world = 4;
    ccfg.steps = 8;
    ccfg.io_ops = 6;
    geofm::chaos::Campaign campaign = geofm::chaos::generate_campaign(ccfg);
    std::printf("=== campaign seed=%llu (%lld/%s, %.0fs elapsed) ===\n%s",
                static_cast<unsigned long long>(seed),
                static_cast<long long>(ran + 1),
                max_campaigns > 0 ? std::to_string(max_campaigns).c_str()
                                  : "budget",
                elapsed(), campaign.describe().c_str());

    auto cfg = soak_elastic_config(primary, mirror);
    cfg.faults = campaign.plan;

    bool campaign_ok = true;
    try {
      const auto res = geofm::train::run_elastic(cfg, corpus);
      const auto audit = flood_server(campaign, primary, mirror);

      geofm::chaos::InvariantInputs in;
      in.config = &cfg;
      in.result = &res;
      in.corpus = &corpus;
      in.publish_roots = {primary, mirror};
      in.serve = audit;
      const auto report = geofm::chaos::check_invariants(in);
      std::printf("%s", report.to_string().c_str());
      campaign_ok = report.ok();
    } catch (const std::exception& e) {
      // run_elastic only throws when recovery is impossible — for these
      // bounded campaigns (max_kills=1, tolerated IO) that is itself a
      // violated guarantee, not an expected outcome.
      std::printf("VIOLATION [harness] campaign did not complete: %s\n",
                  e.what());
      campaign_ok = false;
    }

    ran += 1;
    if (!campaign_ok) {
      failed += 1;
      std::printf("campaign %llu FAILED — roots kept at %s\n",
                  static_cast<unsigned long long>(seed), dir.c_str());
    } else {
      fs::remove_all(dir);
    }
  }

  std::printf("soak: %lld campaign(s) in %.1fs, %lld violated\n",
              static_cast<long long>(ran), elapsed(),
              static_cast<long long>(failed));
  if (failed == 0) fs::remove_all(soak_root);
  return failed == 0 ? 0 : 1;
}
