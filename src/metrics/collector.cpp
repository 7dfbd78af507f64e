#include "metrics/collector.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "metrics/frame.hpp"
#include "obs/trace.hpp"

namespace maestro::metrics {

namespace {

using frame::connect_unix;
using frame::read_frame;
using frame::write_frame;

struct RemoteCounters {
  obs::Counter& conns;
  obs::Counter& frames;
  obs::Counter& records;
  obs::Counter& proto_errors;
};

RemoteCounters& remote_counters() {
  static RemoteCounters c{
      obs::Registry::global().counter("metrics.remote_conns"),
      obs::Registry::global().counter("metrics.remote_frames"),
      obs::Registry::global().counter("metrics.remote_records"),
      obs::Registry::global().counter("metrics.remote_proto_errors"),
  };
  return c;
}

}  // namespace

// ---------------------------------------------------------------- Collector

Collector::Collector(Server& server, CollectorOptions opt)
    : server_(&server), opt_(std::move(opt)) {}

Collector::~Collector() { stop(); }

bool Collector::start() {
  return listener_.start(opt_.socket_path, 16, [this](int fd) { serve_connection(fd); });
}

void Collector::stop() { listener_.stop(); }

void Collector::serve_connection(int fd) {
  auto& rc = remote_counters();
  rc.conns.add();
  std::uint64_t conn_records = 0;
  std::string payload;
  while (true) {
    const int st = read_frame(fd, opt_.max_frame_bytes, &payload);
    if (st == 0) return;  // peer vanished without bye: keep what it sent
    if (st < 0) {
      rc.proto_errors.add();
      return;
    }
    rc.frames.add();
    const auto doc = util::Json::parse(payload);
    if (!doc || !doc->is_object()) {
      rc.proto_errors.add();
      return;
    }
    const std::string& type = doc->at("type").as_string();
    if (type == "records") {
      const obs::Span span("metrics_ingest", "metrics");
      std::vector<Record> batch;
      batch.reserve(doc->at("records").as_array().size());
      for (const auto& rj : doc->at("records").as_array()) {
        if (auto r = Record::from_json(rj)) batch.push_back(std::move(*r));
      }
      conn_records += batch.size();
      rc.records.add(batch.size());
      records_.fetch_add(batch.size(), std::memory_order_relaxed);
      server_->submit_batch(std::move(batch));
    } else if (type == "sync" || type == "bye") {
      // Flush handshake: everything received on this connection is already
      // in the server (frames are ingested as they arrive), so the ack is
      // the durability point the client waits on.
      const obs::Span span("metrics_flush", "metrics");
      util::JsonObject ack;
      ack["type"] = util::Json{"ack"};
      ack["received"] = util::Json{static_cast<double>(conn_records)};
      if (!write_frame(fd, util::Json{std::move(ack)}.dump())) return;
      if (type == "bye") return;  // graceful close
    } else {
      rc.proto_errors.add();
      return;
    }
  }
}

// --------------------------------------------------------- RemoteTransmitter

RemoteTransmitter::RemoteTransmitter(const std::string& socket_path, Options opt)
    : opt_(opt), fd_(connect_unix(socket_path)) {
  if (opt_.batch_records == 0) opt_.batch_records = 1;
  pending_.reserve(opt_.batch_records);
}

RemoteTransmitter::~RemoteTransmitter() { close(); }

bool RemoteTransmitter::submit(Record r) {
  if (fd_ < 0) return false;
  pending_.push_back(std::move(r));
  if (pending_.size() >= opt_.batch_records) return ship_pending();
  return true;
}

bool RemoteTransmitter::ship_pending() {
  if (fd_ < 0) return false;
  if (pending_.empty()) return true;
  util::JsonArray arr;
  arr.reserve(pending_.size());
  for (const auto& r : pending_) arr.push_back(r.to_json());
  util::JsonObject frame;
  frame["type"] = util::Json{"records"};
  frame["records"] = util::Json{std::move(arr)};
  const std::string payload = util::Json{std::move(frame)}.dump();
  if (payload.size() > max_frame_bytes_ || !write_frame(fd_, payload)) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  sent_ += pending_.size();
  pending_.clear();
  return true;
}

bool RemoteTransmitter::handshake(const char* type) {
  util::JsonObject req;
  req["type"] = util::Json{type};
  if (!write_frame(fd_, util::Json{std::move(req)}.dump())) return false;
  std::string payload;
  if (read_frame(fd_, max_frame_bytes_, &payload) != 1) return false;
  const auto doc = util::Json::parse(payload);
  if (!doc || doc->at("type").as_string() != "ack") return false;
  return doc->at("received").as_uint() == sent_;
}

bool RemoteTransmitter::flush() {
  if (fd_ < 0) return false;
  if (!ship_pending()) return false;
  const obs::Span span("metrics_flush", "metrics");
  if (!handshake("sync")) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool RemoteTransmitter::close() {
  if (fd_ < 0) return true;
  bool ok = ship_pending();
  ok = ok && handshake("bye");
  ::close(fd_);
  fd_ = -1;
  return ok;
}

}  // namespace maestro::metrics
