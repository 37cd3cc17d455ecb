#include "sim/backend.hpp"

#include <utility>

#include "sim/exact_network.hpp"
#include "util/require.hpp"

namespace sparsetrain::sim {

AcceleratorBackend::AcceleratorBackend(std::string name, ArchConfig cfg)
    : name_(std::move(name)), accel_(std::move(cfg)) {
  ST_REQUIRE(!name_.empty(), "backend name must be non-empty");
}

SimReport AcceleratorBackend::run(const isa::Program& program,
                                  const workload::NetworkConfig& net,
                                  const workload::SparsityProfile& profile,
                                  std::uint64_t seed,
                                  const ExactOptions& exact) const {
  const bool exact_run = program.engine == isa::EngineKind::Exact &&
                         accel_.config().sparse;
  SimReport report =
      exact_run
          ? run_exact(accel_.config(), program, net, profile, seed, exact)
          : accel_.run(program, net, profile, seed);
  report.backend = name_;
  return report;
}

void BackendRegistry::add(std::shared_ptr<Backend> backend) {
  ST_REQUIRE(backend != nullptr, "cannot register a null backend");
  const std::string& name = backend->name();
  ST_REQUIRE(!name.empty(), "backend name must be non-empty");
  ST_REQUIRE(by_name_.find(name) == by_name_.end(),
             "backend '" + name + "' is already registered");
  // Reject nonsense architectures at the registration boundary: a zero
  // PE count or an absurd buffer would otherwise just simulate garbage.
  backend->arch().validate();
  by_name_.emplace(name, backend);
  order_.push_back(std::move(backend));
}

std::shared_ptr<Backend> BackendRegistry::register_arch(std::string name,
                                                        ArchConfig cfg) {
  auto backend =
      std::make_shared<AcceleratorBackend>(std::move(name), std::move(cfg));
  add(backend);
  return backend;
}

std::shared_ptr<const Backend> BackendRegistry::find(
    const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const Backend& BackendRegistry::at(const std::string& name) const {
  const auto it = by_name_.find(name);
  ST_REQUIRE(it != by_name_.end(),
             "no backend registered under '" + name + "'");
  return *it->second;
}

bool BackendRegistry::contains(const std::string& name) const {
  return by_name_.find(name) != by_name_.end();
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(order_.size());
  for (const auto& b : order_) out.push_back(b->name());
  return out;
}

}  // namespace sparsetrain::sim
