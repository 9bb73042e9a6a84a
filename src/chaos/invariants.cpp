#include "chaos/invariants.hpp"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <sstream>

#include "chaos/campaign.hpp"
#include "ckpt/checkpoint.hpp"
#include "comm/communicator.hpp"
#include "models/mae.hpp"
#include "parallel/fsdp.hpp"
#include "train/distributed.hpp"
#include "util/rng.hpp"

namespace geofm::chaos {

namespace {

namespace fs = std::filesystem;

void violate(InvariantReport& rep, const std::string& invariant,
             const std::string& detail) {
  rep.violations.push_back({invariant, detail});
}

/// True for fault kinds that change the numbers a run produces (as
/// opposed to its timing): an injected payload corruption or a poisoned
/// sample must be replayed for the reference trajectory to match; kills,
/// stalls, and slow IO only move wall-clock.
bool affects_losses(comm::FaultEvent::Kind kind) {
  using Kind = comm::FaultEvent::Kind;
  return kind == Kind::kCorrupt || kind == Kind::kLoaderWorkerKill ||
         kind == Kind::kLoaderSlowRender || kind == Kind::kLoaderPoison;
}

/// The reference trajectory for recovery-bitwise: a fresh run at the
/// completing attempt's world, resumed from the same checkpoint, with
/// that attempt's loss-affecting fired faults replayed (identity terms
/// remapped to the attempt's ranks). No checkpointing — pure audit.
std::vector<float> reference_losses(const train::ElasticConfig& ecfg,
                                    const train::ElasticResult& res,
                                    const data::SceneDataset& corpus) {
  const train::ElasticAttempt& last = res.attempts.back();
  comm::FaultPlan replay;
  replay.seed = res.fired_plan.seed;
  const size_t total = res.fired_plan.events.size();
  const size_t from_last = static_cast<size_t>(last.faults_fired);
  for (size_t i = total - std::min(from_last, total); i < total; ++i) {
    comm::FaultEvent e = res.fired_plan.events[i];
    if (!affects_losses(e.kind)) continue;
    if (e.rank >= 0) {
      const auto it = std::find(res.final_identities.begin(),
                                res.final_identities.end(), e.rank);
      if (it == res.final_identities.end()) continue;  // fired on a dead rank
      e.rank = static_cast<int>(it - res.final_identities.begin());
    }
    replay.events.push_back(e);
  }
  std::shared_ptr<comm::FaultInjector> injector;
  if (!replay.events.empty()) {
    injector = std::make_shared<comm::FaultInjector>(std::move(replay));
  }

  std::vector<float> losses;
  std::mutex mu;
  comm::run_ranks(last.world, [&](comm::Communicator& c) {
    Rng rng(ecfg.model_seed);
    models::MAE mae(ecfg.model, rng);
    parallel::Fsdp fsdp(mae, c, ecfg.fsdp);
    auto tc = ecfg.train;
    tc.checkpoint_every_n_steps = 0;
    tc.checkpoint_dir.clear();
    tc.upload = ckpt::UploaderOptions{};
    tc.resume_from = last.resumed_from;
    tc.fault_injector = injector;
    auto r = train::pretrain_mae_distributed(mae, fsdp, c, corpus, tc);
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      losses = r.step_losses;
    }
  });
  return losses;
}

}  // namespace

std::string InvariantReport::to_string() const {
  std::ostringstream out;
  out << "invariants checked: ";
  for (size_t i = 0; i < checked.size(); ++i) {
    if (i > 0) out << ", ";
    out << checked[i];
  }
  if (checked.empty()) out << "(none)";
  out << "\n";
  if (violations.empty()) {
    out << "all hold\n";
  } else {
    for (const auto& v : violations) {
      out << "VIOLATION [" << v.invariant << "] " << v.detail << "\n";
    }
  }
  return out.str();
}

InvariantReport check_invariants(const InvariantInputs& in) {
  InvariantReport rep;

  // ----- futures-conserved ----------------------------------------------
  if (in.serve.issued > 0) {
    rep.checked.push_back("futures-conserved");
    if (in.serve.resolved != in.serve.issued) {
      std::ostringstream d;
      d << in.serve.issued << " requests issued but " << in.serve.resolved
        << " futures resolved — a future was dropped";
      violate(rep, "futures-conserved", d.str());
    }
    const serve::ServerStats& s = in.serve.stats;
    const i64 accounted = s.requests + s.shed_overload + s.shed_deadline +
                          s.shed_shutdown + s.shed_degraded;
    if (accounted != in.serve.issued) {
      std::ostringstream d;
      d << "typed accounting mismatch: " << s.requests << " fulfilled + "
        << (accounted - s.requests) << " shed != " << in.serve.issued
        << " issued";
      violate(rep, "futures-conserved", d.str());
    }
  }

  // ----- publications-atomic --------------------------------------------
  if (!in.publish_roots.empty()) {
    rep.checked.push_back("publications-atomic");
    for (const auto& root : in.publish_roots) {
      const auto m = ckpt::latest_published_manifest(root);
      if (!m.found()) continue;  // an empty root is fine; a torn one is not
      try {
        ckpt::verify_checkpoint_dir(m.dir);
      } catch (const std::exception& e) {
        violate(rep, "publications-atomic",
                "visible manifest " + m.dir + " fails verify: " + e.what());
      }
    }
    for (const auto& src : ckpt::published_sources(in.publish_roots)) {
      try {
        ckpt::verify_checkpoint_dir(src.dir);
      } catch (const std::exception& e) {
        violate(rep, "publications-atomic",
                "published source " + src.dir + " fails verify: " + e.what());
      }
    }
  }

  if (in.config != nullptr && in.result != nullptr &&
      !in.result->attempts.empty()) {
    const train::ElasticResult& res = *in.result;
    const train::ElasticAttempt& last = res.attempts.back();

    // ----- recovery-bounded ---------------------------------------------
    rep.checked.push_back("recovery-bounded");
    if (res.recoveries > train::kMaxRecoveries) {
      std::ostringstream d;
      d << res.recoveries << " recoveries exceeds the bound "
        << train::kMaxRecoveries;
      violate(rep, "recovery-bounded", d.str());
    }
    if (in.max_recovery_seconds > 0 &&
        res.recovery_seconds > in.max_recovery_seconds) {
      std::ostringstream d;
      d << res.recovery_seconds << "s total recovery time exceeds "
        << in.max_recovery_seconds << "s";
      violate(rep, "recovery-bounded", d.str());
    }
    if (!last.completed) {
      violate(rep, "recovery-bounded",
              "final attempt did not complete: " + last.failure);
    }

    // ----- postmortems-present ------------------------------------------
    if (!in.config->train.checkpoint_dir.empty()) {
      rep.checked.push_back("postmortems-present");
      for (size_t a = 0; a < res.attempts.size(); ++a) {
        const train::ElasticAttempt& att = res.attempts[a];
        if (att.completed) continue;
        std::ostringstream who;
        who << "attempt " << a << " (failure: " << att.failure << ")";
        if (att.postmortem.empty()) {
          violate(rep, "postmortems-present",
                  who.str() + " archived no postmortem bundle");
          continue;
        }
        if (!fs::exists(att.postmortem)) {
          violate(rep, "postmortems-present",
                  who.str() + " bundle missing on disk: " + att.postmortem);
          continue;
        }
        try {
          plan_from_postmortem_file(att.postmortem);
        } catch (const std::exception& e) {
          violate(rep, "postmortems-present",
                  who.str() + " bundle's fired_plan does not parse back: " +
                      e.what());
        }
      }
    }

    // ----- recovery-bitwise ---------------------------------------------
    if (in.corpus != nullptr && last.completed &&
        !last.truncated_for_growth) {
      rep.checked.push_back("recovery-bitwise");
      const std::vector<float> want =
          reference_losses(*in.config, res, *in.corpus);
      const std::vector<float>& got = last.losses;
      if (got.size() != want.size()) {
        std::ostringstream d;
        d << "final attempt ran " << got.size() << " steps, reference ran "
          << want.size();
        violate(rep, "recovery-bitwise", d.str());
      } else {
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i] != want[i]) {
            std::ostringstream d;
            d << "losses diverge at post-recovery step " << i << ": "
              << got[i] << " vs fresh-run " << want[i];
            violate(rep, "recovery-bitwise", d.str());
            break;
          }
        }
      }
    }
  }

  return rep;
}

}  // namespace geofm::chaos
