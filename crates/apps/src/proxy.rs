//! The deployment proxy of paper §5.1: "we deployed a simple proxy to
//! redirect the Flickr requests (originally directed to the Flickr
//! servers) to the local Starlink mediator."
//!
//! The proxy is protocol-agnostic: it relays whole wire messages between
//! the client connection and the redirect target, alternating
//! request/response (the RPC interaction pattern every protocol in this
//! reproduction uses).

use starlink_core::Result;
use starlink_net::{Endpoint, NetError, NetworkEngine};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// How long the accept loop backs off after a transient accept error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// A running redirect proxy.
pub struct RedirectProxy {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    relayed: Arc<AtomicUsize>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl RedirectProxy {
    /// Deploys a proxy listening at `listen` and forwarding every
    /// request to `target`.
    ///
    /// The accept loop polls the listener (so shutdown takes effect
    /// promptly) and tolerates transient accept failures instead of dying
    /// on the first.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn deploy(
        net: &NetworkEngine,
        listen: &Endpoint,
        target: &Endpoint,
    ) -> Result<RedirectProxy> {
        let listener = net.listen(listen)?;
        let endpoint = listener.local_endpoint();
        let stop = Arc::new(AtomicBool::new(false));
        let relayed = Arc::new(AtomicUsize::new(0));
        let accept_stop = stop.clone();
        let counter = relayed.clone();
        let net = net.clone();
        let target = target.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut relay_threads: Vec<JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::SeqCst) {
                let mut client = match listener.try_accept() {
                    Ok(Some(c)) => c,
                    Ok(None) => {
                        std::thread::sleep(IDLE_POLL);
                        continue;
                    }
                    Err(NetError::Closed) => break,
                    Err(_) => {
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    }
                };
                let mut upstream = match net.connect(&target) {
                    Ok(u) => u,
                    Err(_) => continue,
                };
                let stop = accept_stop.clone();
                let counter = counter.clone();
                relay_threads.push(std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let request = match client.receive_timeout(Duration::from_millis(500)) {
                            Ok(r) => r,
                            Err(starlink_net::NetError::Timeout) => continue,
                            Err(_) => return,
                        };
                        if upstream.send(&request).is_err() {
                            return;
                        }
                        let reply = match upstream.receive_timeout(Duration::from_secs(10)) {
                            Ok(r) => r,
                            Err(_) => return,
                        };
                        // Counted before the reply goes out, so a client
                        // holding its reply already sees the exchange.
                        counter.fetch_add(1, Ordering::SeqCst);
                        if client.send(&reply).is_err() {
                            return;
                        }
                    }
                }));
            }
            for t in relay_threads {
                let _ = t.join();
            }
        });
        Ok(RedirectProxy {
            endpoint,
            stop,
            relayed,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The endpoint clients should be pointed at.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Number of request/response pairs relayed so far.
    pub fn relayed_exchanges(&self) -> usize {
        self.relayed.load(Ordering::SeqCst)
    }

    /// Shuts the proxy down and joins its accept and relay threads.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let handle = self.accept_thread.lock().unwrap().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for RedirectProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculator::{AddClient, AddService};
    use starlink_net::{Connection, Listener, MemoryTransport, Transport};
    use std::sync::mpsc::Receiver;

    #[test]
    fn proxy_relays_rpc_traffic_transparently() {
        let mut net = NetworkEngine::new();
        net.register(Arc::new(MemoryTransport::new()));
        let service = AddService::deploy(&net, &Endpoint::memory("add")).unwrap();
        let proxy = RedirectProxy::deploy(
            &net,
            &Endpoint::memory("flickr-lookalike"),
            service.endpoint(),
        )
        .unwrap();
        // The client believes it talks to the original endpoint.
        let mut client = AddClient::connect(&net, proxy.endpoint()).unwrap();
        assert_eq!(client.add(20, 22).unwrap(), 42);
        assert_eq!(client.add(1, 1).unwrap(), 2);
        assert_eq!(proxy.relayed_exchanges(), 2);
    }

    /// The memory transport, except that connections it accepts hold
    /// each send, after delivering it, until the test releases them: the
    /// test sees exactly what a client can observe the moment its reply
    /// lands.
    struct Gated {
        inner: MemoryTransport,
        release: Arc<Mutex<Receiver<()>>>,
    }

    struct GatedListener {
        inner: Box<dyn Listener>,
        release: Arc<Mutex<Receiver<()>>>,
    }

    struct GatedConn {
        inner: Box<dyn Connection>,
        release: Arc<Mutex<Receiver<()>>>,
    }

    impl Transport for Gated {
        fn scheme(&self) -> &str {
            "memory"
        }

        fn listen(&self, endpoint: &Endpoint) -> starlink_net::Result<Box<dyn Listener>> {
            Ok(Box::new(GatedListener {
                inner: self.inner.listen(endpoint)?,
                release: self.release.clone(),
            }))
        }

        fn connect(&self, endpoint: &Endpoint) -> starlink_net::Result<Box<dyn Connection>> {
            self.inner.connect(endpoint)
        }
    }

    impl GatedListener {
        fn gate(&self, inner: Box<dyn Connection>) -> Box<dyn Connection> {
            Box::new(GatedConn {
                inner,
                release: self.release.clone(),
            })
        }
    }

    impl Listener for GatedListener {
        fn accept(&self) -> starlink_net::Result<Box<dyn Connection>> {
            Ok(self.gate(self.inner.accept()?))
        }

        fn try_accept(&self) -> starlink_net::Result<Option<Box<dyn Connection>>> {
            Ok(self.inner.try_accept()?.map(|c| self.gate(c)))
        }

        fn local_endpoint(&self) -> Endpoint {
            self.inner.local_endpoint()
        }
    }

    impl Connection for GatedConn {
        fn send(&mut self, data: &[u8]) -> starlink_net::Result<()> {
            self.inner.send(data)?;
            let _ = self.release.lock().unwrap().recv();
            Ok(())
        }

        fn receive(&mut self) -> starlink_net::Result<Vec<u8>> {
            self.inner.receive()
        }

        fn receive_timeout(&mut self, timeout: Duration) -> starlink_net::Result<Vec<u8>> {
            self.inner.receive_timeout(timeout)
        }

        fn try_receive(&mut self) -> starlink_net::Result<Option<Vec<u8>>> {
            self.inner.try_receive()
        }

        fn peer(&self) -> String {
            self.inner.peer()
        }
    }

    #[test]
    fn relayed_count_includes_the_reply_just_received() {
        let memory = MemoryTransport::new();
        let mut net = NetworkEngine::new();
        net.register(Arc::new(memory.clone()));
        let (release_tx, gate) = std::sync::mpsc::channel();
        let mut gated = NetworkEngine::new();
        gated.register(Arc::new(Gated {
            inner: memory,
            release: Arc::new(Mutex::new(gate)),
        }));
        let service = AddService::deploy(&net, &Endpoint::memory("add")).unwrap();
        let proxy = RedirectProxy::deploy(&gated, &Endpoint::memory("counted"), service.endpoint())
            .unwrap();
        let mut client = AddClient::connect(&net, proxy.endpoint()).unwrap();
        // Bound after the proxy so that, if an assertion fails, the gate
        // opens before the proxy's shutdown joins the relay thread.
        let release = release_tx;
        for i in 1..=20 {
            // The relay thread is still inside its reply send here.
            assert_eq!(client.add(i, 1).unwrap(), i + 1);
            assert_eq!(proxy.relayed_exchanges(), i as usize);
            release.send(()).unwrap();
        }
    }

    #[test]
    fn proxy_shutdown_is_prompt_and_joins() {
        let mut net = NetworkEngine::new();
        net.register(Arc::new(MemoryTransport::new()));
        let service = AddService::deploy(&net, &Endpoint::memory("add")).unwrap();
        let proxy =
            RedirectProxy::deploy(&net, &Endpoint::memory("front"), service.endpoint()).unwrap();
        // An idle relay thread is parked in a receive slice; shutdown
        // must interrupt it and join within a bounded time.
        let _idle = net.connect(proxy.endpoint()).unwrap();
        let started = std::time::Instant::now();
        proxy.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown took {:?}",
            started.elapsed()
        );
    }
}
