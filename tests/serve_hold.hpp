// Holds a server's evaluations at their store publication.
//
// HoldPublication is store I/O whose open() — the store opens a file
// only to write a record — blocks while held. An evaluation stopped there
// has already looked the store up, compiled and simulated, and its
// future resolves only after release() lets the record publish, so tests
// can line requesters up against a running evaluation. Inject it through
// ServerOptions::session.store (held_store_options).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "serve/io_hooks.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"

namespace sparsetrain {

class HoldPublication : public serve::IoHooks {
 public:
  void hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }

  /// Blocks until `n` publications wait at the hold.
  void wait_blocked(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ >= n; });
  }

  std::FILE* open(const std::string& path, const char* mode) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++blocked_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !held_; });
      --blocked_;
    }
    return serve::IoHooks::open(path, mode);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;         ///< guarded by mu_
  std::size_t blocked_ = 0;   ///< publications waiting (guarded by mu_)
};

/// Server options whose session publishes through `hold` into a store
/// on `dir`.
inline serve::ServerOptions held_store_options(
    const std::string& dir, const std::shared_ptr<HoldPublication>& hold) {
  serve::StoreOptions so;
  so.hooks = hold;
  serve::ServerOptions opts;
  opts.session.store = std::make_shared<serve::ResultStore>(dir, so);
  return opts;
}

}  // namespace sparsetrain
