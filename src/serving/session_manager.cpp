#include "serving/session_manager.h"

#include <cstdio>

#include "common/fs.h"

namespace primer {

namespace {

// Parses "client_<decimal id>" directory names from the store root.
bool parse_client_dir(const std::string& name, std::uint64_t* id) {
  const std::string prefix = "client_";
  if (name.size() <= prefix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  std::uint64_t v = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

}  // namespace

SessionManager::SessionManager(std::string store_root)
    : store_root_(std::move(store_root)) {
  if (store_root_.empty()) return;
  ensure_dir(store_root_);
  adopt_existing_clients();
}

std::string SessionManager::client_dir(std::uint64_t client_id) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "client_%llu",
                static_cast<unsigned long long>(client_id));
  return store_root_ + "/" + buf;
}

std::string SessionManager::fingerprint_path(std::uint64_t client_id) const {
  // Sibling of the client's blob directory, NOT inside it — the store's
  // recovery scan would quarantine any non-checkpoint file it found.
  return client_dir(client_id) + ".fp";
}

void SessionManager::persist_fingerprint(std::uint64_t client_id,
                                         std::uint64_t fp) {
  if (store_root_.empty()) return;
  try {
    if (fp == 0) {
      remove_file(fingerprint_path(client_id));
      return;
    }
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<std::uint8_t>(fp >> (8 * i));
    }
    char name[40];
    std::snprintf(name, sizeof name, "client_%llu.fp",
                  static_cast<unsigned long long>(client_id));
    atomic_write_file(store_root_, name, bytes, sizeof bytes);
  } catch (const FsError&) {
    // Best effort: losing the fingerprint file only costs one extra store
    // reset after a restart, never correctness (a mismatched resume would
    // be caught by digest negotiation anyway).
  }
}

void SessionManager::adopt_existing_clients() {
  for (const std::string& name : list_dir(store_root_)) {
    std::uint64_t id = 0;
    if (!parse_client_dir(name, &id)) continue;
    if (!is_directory(store_root_ + "/" + name)) continue;
    auto state = std::make_unique<ClientState>();
    try {
      state->store = std::make_unique<DurableSessionStore>(client_dir(id));
    } catch (const FsError&) {
      continue;  // unreadable client dir; leave it for manual inspection
    }
    if (const auto fp = read_file(fingerprint_path(id));
        fp.has_value() && fp->size() == 8) {
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>((*fp)[static_cast<std::size_t>(i)])
             << (8 * i);
      }
      state->fingerprint = v;
    }
    // Without a fingerprint the checkpoints are still valid, but the next
    // acquire() will clear them (identity unknown -> treated as changed).
    clients_[id] = std::move(state);
    ++recovered_clients_;
  }
}

SessionManager::ClientState& SessionManager::client_locked(
    std::uint64_t client_id) {
  auto& slot = clients_[client_id];
  if (slot == nullptr) slot = std::make_unique<ClientState>();
  if (slot->store == nullptr) {
    if (!store_root_.empty()) {
      try {
        slot->store =
            std::make_unique<DurableSessionStore>(client_dir(client_id));
      } catch (const FsError&) {
        // Unusable client directory at runtime: degrade this client to an
        // in-memory store rather than refuse service.
        slot->store = std::make_unique<SessionStore>();
      }
    } else {
      slot->store = std::make_unique<SessionStore>();
    }
  }
  return *slot;
}

SessionManager::Acquire SessionManager::acquire(std::uint64_t client_id,
                                                std::uint64_t fingerprint,
                                                Lease* lease,
                                                std::string* why) {
  std::lock_guard<std::mutex> lk(mu_);
  ClientState& c = client_locked(client_id);
  if (c.quarantined) {
    if (why != nullptr) *why = c.quarantine_reason;
    return Acquire::kQuarantined;
  }
  if (c.in_flight) {
    if (why != nullptr) *why = "client already has an in-flight session";
    return Acquire::kBusy;
  }
  if (c.fingerprint != fingerprint) {
    // Different request identity: the old journal describes a different
    // protocol run, so resuming against it would fork.  Start fresh.
    if (c.fingerprint != 0) ++resets_;
    c.store->clear();
    c.fingerprint = fingerprint;
    persist_fingerprint(client_id, fingerprint);
  }
  c.in_flight = true;
  lease->store = c.store.get();
  lease->resumable = c.store->latest_epoch(Party::kClient) != 0;
  if (lease->resumable) ++resumable_hits_;
  return Acquire::kOk;
}

void SessionManager::release(std::uint64_t client_id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = clients_.find(client_id);
  if (it != clients_.end()) it->second->in_flight = false;
}

void SessionManager::quarantine(std::uint64_t client_id,
                                const std::string& reason) {
  std::lock_guard<std::mutex> lk(mu_);
  ClientState& c = client_locked(client_id);
  c.quarantined = true;
  c.quarantine_reason = reason;
  // Poisoned history: cached keys and checkpoints came from a session that
  // produced structurally hostile traffic — drop them all, on disk too.
  c.store->clear();
  c.fingerprint = 0;
  persist_fingerprint(client_id, 0);
}

bool SessionManager::is_quarantined(std::uint64_t client_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = clients_.find(client_id);
  return it != clients_.end() && it->second->quarantined;
}

SessionManager::Stats SessionManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.clients = clients_.size();
  for (const auto& [id, c] : clients_) {
    if (c->quarantined) ++s.quarantined;
    if (c->in_flight) ++s.in_flight;
    if (c->store == nullptr) continue;
    s.store_bytes += c->store->blob_bytes();
    const SessionStore::Telemetry t = c->store->telemetry();
    s.store_bytes_written += t.bytes_written;
    s.store_fsyncs += t.fsyncs;
    s.store_degradations += t.degradations;
    s.store_recovered_blobs += t.recovered_blobs;
    s.store_quarantined_blobs += t.quarantined_blobs;
    if (t.degraded) ++s.stores_degraded;
  }
  s.resumable_hits = resumable_hits_;
  s.resets = resets_;
  s.recovered_clients = recovered_clients_;
  return s;
}

}  // namespace primer
