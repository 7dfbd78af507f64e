#pragma once
// METRICS wire protocol: many maestro processes, one collector.
//
// The paper's §4/Fig. 11 METRICS service is *central* — every tool run in an
// organization transmits into one collection point. The in-process Server
// covers one process; this module is the process boundary: a Collector owns
// a Server and listens on a local (AF_UNIX) stream socket, and any number of
// RemoteTransmitters — one per tool process — connect and stream records in.
//
// Frame format (length-prefixed JSONL): each frame is a 4-byte little-endian
// payload length followed by that many bytes of JSON text. Payloads:
//
//   {"type":"records","records":[<Record>, ...]}   client -> collector
//   {"type":"sync"}                                client -> collector
//   {"type":"bye"}                                 client -> collector
//   {"type":"ack","received":N}                    collector -> client
//
// "sync" is the flush handshake: the collector ingests everything received
// on the connection so far, then acks with its per-connection record count —
// when RemoteTransmitter::flush() returns true, every prior submit() is
// queryable in the collector's Server. "bye" is the graceful shutdown
// handshake (flush semantics + connection close). Records with run_id 0 get
// collector-assigned ids; nonzero ids are preserved, so a client that
// numbers its records round-trips them bit-identically.
//
// The collector observes itself: each ingested frame runs under a
// metrics_ingest span and lands in the metrics.ingest_batch / metrics.enqueue_us
// histograms (via Server::submit_batch); sync/bye handshakes run under
// metrics_flush spans; metrics.remote_* counters track connections, frames
// and records. All of it reaches the record store through the existing
// Transmitter::transmit_snapshot bridge like every other subsystem.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/frame.hpp"
#include "metrics/server.hpp"

namespace maestro::metrics {

struct CollectorOptions {
  /// Filesystem path of the AF_UNIX listening socket (unlinked on bind and
  /// again on stop). Keep it short: sun_path is ~107 bytes.
  std::string socket_path;
  /// Frames larger than this are a protocol error; the connection drops.
  std::size_t max_frame_bytes = 8u << 20;
};

/// Accepts RemoteTransmitter connections and feeds their records into a
/// Server (a frame::Listener: one accept thread plus one reader thread per
/// live connection).
class Collector {
 public:
  Collector(Server& server, CollectorOptions opt);
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Bind + listen + start accepting. False if the socket cannot be bound.
  bool start();
  /// Stop accepting, unblock and join every connection, unlink the socket.
  /// In-flight buffered records are ingested before the reader joins.
  void stop();

  bool running() const { return listener_.running(); }
  std::uint64_t records_received() const { return records_.load(std::memory_order_relaxed); }
  std::uint64_t connections_accepted() const { return listener_.accepted(); }
  /// Connection threads not yet joined (live plus finished-but-unreaped).
  std::size_t tracked_connections() const { return listener_.tracked_connections(); }

  Server& server() { return *server_; }

 private:
  void serve_connection(int fd);

  Server* server_;
  CollectorOptions opt_;
  std::atomic<std::uint64_t> records_{0};
  frame::Listener listener_;
};

/// Client half of the wire protocol: buffers records and ships them to a
/// Collector in batched frames. Not thread-safe — one transmitter per
/// producing thread (the collector serializes per connection anyway).
class RemoteTransmitter {
 public:
  struct Options {
    /// Records buffered locally before a frame is written.
    std::size_t batch_records = 64;
  };

  explicit RemoteTransmitter(const std::string& socket_path)
      : RemoteTransmitter(socket_path, Options()) {}
  RemoteTransmitter(const std::string& socket_path, Options opt);
  ~RemoteTransmitter();  ///< graceful close() if still connected
  RemoteTransmitter(const RemoteTransmitter&) = delete;
  RemoteTransmitter& operator=(const RemoteTransmitter&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Buffer one record; ships a frame when the batch fills. False once the
  /// connection is lost (records are then dropped client-side).
  bool submit(Record r);

  /// Ship buffered records, then run the sync handshake: returns true once
  /// the collector acknowledges every record sent on this connection.
  bool flush();

  /// Graceful shutdown: flush, then the bye/ack handshake, then disconnect.
  /// Safe to call repeatedly.
  bool close();

  std::uint64_t sent() const { return sent_; }

 private:
  bool ship_pending();
  bool handshake(const char* type);  ///< "sync" or "bye": send + await ack

  Options opt_;
  int fd_ = -1;
  std::uint64_t sent_ = 0;
  std::vector<Record> pending_;
  std::size_t max_frame_bytes_ = 8u << 20;
};

}  // namespace maestro::metrics
