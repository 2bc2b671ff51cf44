//! Reactor-backed transport: hundreds of in-flight meetings per node
//! over one multiplexed connection per peer, driven by a single thread.
//!
//! [`ReactorTransport`] overrides [`Transport::submit`] with the
//! reactor's non-blocking ticket, so the cluster's round executor and
//! pre-meetings sweep (which submit first and harvest later) keep many
//! exchanges in flight through the same code that runs them inline on
//! loopback. [`serve_on_reactor`] is the one way a node set is brought
//! up on sockets: the cluster driver and `jxp node` both use it.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use jxp_reactor::{FrameService, Reactor, ReactorConfig, ReactorHandle, ReactorMetrics};
use jxp_telemetry::{lock_unpoisoned, Registry};
use jxp_wire::Frame;

use crate::transport::{Exchange, FrameHandler, NodeId, Submission, Transport, TransportError};

/// Adapt a node-side [`FrameHandler`] (a `JxpNode` or an injector
/// wrapping one) to the reactor's serve interface. `handle` runs inline
/// on the loop thread, which is what preserves journal-before-reply:
/// the Serve WAL record is written inside `handle` before the reply
/// frame is queued on the socket.
struct HandlerService(Arc<dyn FrameHandler>);

impl FrameService for HandlerService {
    fn serve(&self, frame: Frame) -> Option<Frame> {
        self.0.handle(frame)
    }
}

/// Client side of the reactor: routes node ids to listener addresses,
/// multiplexing every request for a peer over one connection.
#[derive(Clone)]
pub struct ReactorTransport {
    inner: Arc<ReactorTransportInner>,
}

struct ReactorTransportInner {
    handle: ReactorHandle,
    routes: Mutex<HashMap<NodeId, SocketAddr>>,
}

impl ReactorTransport {
    fn new(handle: ReactorHandle) -> ReactorTransport {
        ReactorTransport {
            inner: Arc::new(ReactorTransportInner {
                handle,
                routes: Mutex::new(HashMap::new()),
            }),
        }
    }

    fn add_route(&self, id: NodeId, addr: SocketAddr) {
        lock_unpoisoned(&self.inner.routes).insert(id, addr);
    }

    /// The listener address `id` is routed to, if any.
    pub fn route(&self, id: NodeId) -> Option<SocketAddr> {
        lock_unpoisoned(&self.inner.routes).get(&id).copied()
    }
}

impl Transport for ReactorTransport {
    fn request(&self, peer: NodeId, frame: &Frame) -> Result<Exchange, TransportError> {
        self.submit(peer, frame).wait()
    }

    fn submit(&self, peer: NodeId, frame: &Frame) -> Submission {
        match self.route(peer) {
            Some(addr) => Submission::Queued(self.inner.handle.submit(addr, frame)),
            None => Submission::Done(Err(TransportError::Unreachable(format!(
                "no route to node {peer}"
            )))),
        }
    }
}

/// Start a reactor with a listener per handler, routing node id `i` to
/// `handlers[i]`; its gauges register in `registry` when one is given.
/// The returned [`Reactor`] owns the loop thread: keep it alive for as
/// long as the transport is used.
///
/// # Errors
/// Fails if a localhost listener cannot be bound.
pub fn serve_on_reactor(
    handlers: &[Arc<dyn FrameHandler>],
    registry: Option<&Registry>,
) -> std::io::Result<(Reactor, ReactorTransport)> {
    let metrics = registry.map_or_else(ReactorMetrics::detached, ReactorMetrics::registered);
    let reactor = Reactor::start(ReactorConfig::default(), metrics);
    let transport = ReactorTransport::new(reactor.handle());
    for (i, handler) in handlers.iter().enumerate() {
        let addr = reactor
            .handle()
            .listen(Arc::new(HandlerService(Arc::clone(handler))))?;
        transport.add_route(i as NodeId, addr);
    }
    Ok((reactor, transport))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jxp_wire::encoded_len;

    struct Echo;

    impl FrameHandler for Echo {
        fn handle(&self, frame: Frame) -> Option<Frame> {
            Some(frame)
        }
    }

    #[test]
    fn submit_reports_exact_codec_bytes_and_unrouted_peers_are_unreachable() {
        let (_reactor, transport) =
            serve_on_reactor(&[Arc::new(Echo) as Arc<dyn FrameHandler>], None).unwrap();
        let frame = Frame::Hello {
            node_id: 1,
            num_pages: 42,
        };
        let exchange = transport.submit(0, &frame).wait().unwrap();
        assert_eq!(exchange.reply, frame);
        assert_eq!(exchange.bytes_sent, encoded_len(&frame) as u64);
        assert_eq!(exchange.bytes_received, encoded_len(&frame) as u64);
        assert!(matches!(
            transport.request(7, &frame),
            Err(TransportError::Unreachable(_))
        ));
    }
}
