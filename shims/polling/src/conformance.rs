//! The behavioural conformance suite: every guarantee of the backend
//! method set `Poller` forwards to (`new` / `add` / `add_listener` /
//! `delete` / `len` / `wait` / `notify`), written once and instantiated
//! for every backend the test build contains — epoll and peek on Linux,
//! peek elsewhere. This is what keeps the peek scanner honest on a
//! Linux machine, where no non-test artefact contains it. A failure
//! names the offending backend in its test path and its panic message.

macro_rules! conformance_suite {
    ($backend:ident, $Subject:ty) => {
        mod $backend {
            use crate::{Event, WaitResult};
            use std::io::{Read, Write};
            use std::net::{TcpListener, TcpStream};
            use std::time::{Duration, Instant};

            type Subject = $Subject;
            const NAME: &str = Subject::NAME;

            fn new_poller() -> Subject {
                Subject::new().unwrap_or_else(|e| panic!("[{NAME}] construction failed: {e}"))
            }

            /// A connected (client, server-side) socket pair.
            fn socket_pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
                let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (server, _) = listener.accept().unwrap();
                (client, server)
            }

            fn wait_collect(poller: &Subject, timeout: Duration) -> (Vec<Event>, WaitResult) {
                let mut events = Vec::new();
                let result = poller.wait(&mut events, Some(timeout)).unwrap();
                (events, result)
            }

            /// Waits until `key` is reported readable, panicking after `timeout`.
            fn wait_for_key(
                poller: &Subject,
                key: usize,
                timeout: Duration,
                what: &str,
            ) -> Vec<Event> {
                let deadline = Instant::now() + timeout;
                loop {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    assert!(!remaining.is_zero(), "timed out waiting for {what} (key {key})");
                    let (events, _) = wait_collect(poller, remaining);
                    if events.iter().any(|e| e.key == key) {
                        return events;
                    }
                }
            }

            #[test]
            fn idle_wait_times_out_empty() {
                let poller = &new_poller();
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let (_client, server) = socket_pair(&listener);
                poller.add(&server, 7).unwrap();
                let start = Instant::now();
                let (events, result) = wait_collect(poller, Duration::from_millis(30));
                assert!(events.is_empty(), "[{NAME}] phantom events: {events:?}");
                assert!(result.timed_out(), "[{NAME}] expected timeout, got {result:?}");
                assert!(start.elapsed() >= Duration::from_millis(25), "[{NAME}] woke early");
            }

            #[test]
            fn buffered_bytes_and_eof_are_readable() {
                let poller = &new_poller();
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let (mut client, server) = socket_pair(&listener);
                poller.add(&server, 3).unwrap();
                client.write_all(b"ping").unwrap();
                let events = wait_for_key(poller, 3, Duration::from_secs(5), "buffered bytes");
                assert!(events.iter().any(|e| e.key == 3 && e.readable), "[{NAME}]");

                // Level-triggered: unconsumed bytes resurface on the next wait.
                let again =
                    wait_for_key(poller, 3, Duration::from_secs(5), "level-triggered resurface");
                assert!(again.iter().any(|e| e.key == 3), "[{NAME}]");

                // Drain, then close the peer: EOF must also report readable.
                let mut server = server;
                server.set_nonblocking(false).unwrap();
                let mut buf = [0u8; 4];
                server.read_exact(&mut buf).unwrap();
                drop(client);
                let events = wait_for_key(poller, 3, Duration::from_secs(5), "EOF readability");
                assert!(events.iter().any(|e| e.key == 3 && e.readable), "[{NAME}]");
            }

            #[test]
            fn notify_wakes_a_blocked_wait_and_is_sticky() {
                let poller = &new_poller();
                // Sticky: notify with no waiter short-circuits the next wait.
                poller.notify();
                let start = Instant::now();
                let (events, result) = wait_collect(poller, Duration::from_secs(10));
                assert!(result.notified, "[{NAME}] expected notified, got {result:?}");
                assert!(events.is_empty(), "[{NAME}]");
                assert!(start.elapsed() < Duration::from_secs(5), "[{NAME}] notify not sticky");

                // Consumed: the next wait is a plain timeout again.
                let (_, result) = wait_collect(poller, Duration::from_millis(10));
                assert!(result.timed_out(), "[{NAME}] notify leaked: {result:?}");

                // Cross-thread: a concurrent notify interrupts a long wait.
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        std::thread::sleep(Duration::from_millis(50));
                        poller.notify();
                    });
                    let start = Instant::now();
                    let (_, result) = wait_collect(poller, Duration::from_secs(30));
                    assert!(result.notified, "[{NAME}] got {result:?}");
                    assert!(start.elapsed() < Duration::from_secs(10), "[{NAME}]");
                });
            }

            #[test]
            fn duplicate_keys_rejected_and_delete_is_idempotent() {
                let poller = &new_poller();
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let (_c1, s1) = socket_pair(&listener);
                let (_c2, s2) = socket_pair(&listener);
                poller.add(&s1, 1).unwrap();
                let err = poller.add(&s2, 1).unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists, "[{NAME}]");
                assert_eq!(poller.len(), 1, "[{NAME}]");
                poller.delete(1);
                poller.delete(1); // idempotent
                assert!(poller.len() == 0, "[{NAME}]");
                // The key is reusable after deletion.
                poller.add(&s2, 1).unwrap();
                poller.delete(1);
            }

            #[test]
            fn deleted_source_stops_reporting() {
                let poller = &new_poller();
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let (mut client, server) = socket_pair(&listener);
                poller.add(&server, 9).unwrap();
                client.write_all(b"x").unwrap();
                wait_for_key(poller, 9, Duration::from_secs(5), "pre-delete readability");
                poller.delete(9);
                let (events, result) = wait_collect(poller, Duration::from_millis(30));
                assert!(
                    events.iter().all(|e| e.key != 9),
                    "[{NAME}] deleted key still reported: {events:?}"
                );
                assert!(result.timed_out(), "[{NAME}]");
            }

            #[test]
            fn listener_registration_surfaces_pending_accepts() {
                let poller = &new_poller();
                const LISTENER_KEY: usize = 1000;
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap();
                poller.add_listener(&listener, LISTENER_KEY).unwrap();
                let _client = TcpStream::connect(addr).unwrap();
                let events =
                    wait_for_key(poller, LISTENER_KEY, Duration::from_secs(5), "pending accept");
                assert!(events.iter().any(|e| e.key == LISTENER_KEY && e.readable), "[{NAME}]");
                // Registration switched the listener nonblocking; accept works.
                listener.accept().unwrap();
                poller.delete(LISTENER_KEY);
            }

            #[test]
            fn ready_stream_reported_alongside_parked_peers() {
                let poller = &new_poller();
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let mut pairs = Vec::new();
                for key in 0..32usize {
                    let (client, server) = socket_pair(&listener);
                    poller.add(&server, key).unwrap();
                    pairs.push((client, server));
                }
                // Exactly one of the 32 becomes ready.
                pairs[17].0.write_all(b"!").unwrap();
                let events =
                    wait_for_key(poller, 17, Duration::from_secs(5), "the one ready stream");
                assert!(
                    events.iter().all(|e| e.key == 17),
                    "[{NAME}] phantom readiness among parked peers: {events:?}"
                );
                for key in 0..32usize {
                    poller.delete(key);
                }
            }

            #[test]
            fn add_delete_notify_churn_stress() {
                // Hammer registration/deregistration from one thread and notify
                // from another while a third waits — exercising the mutex + kernel
                // table paths for lost wakeups, phantom keys, or deadlock.
                let poller = &new_poller();
                const ROUNDS: usize = 40;
                const PER_ROUND: usize = 16;
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                std::thread::scope(|scope| {
                    let churn = scope.spawn(|| {
                        for round in 0..ROUNDS {
                            let mut pairs = Vec::new();
                            for slot in 0..PER_ROUND {
                                let key = round * PER_ROUND + slot;
                                let (mut client, server) = socket_pair(&listener);
                                poller.add(&server, key).unwrap();
                                if slot % 3 == 0 {
                                    client.write_all(b"c").unwrap();
                                }
                                pairs.push((client, server, key));
                            }
                            for (_, _, key) in &pairs {
                                poller.delete(*key);
                            }
                        }
                    });
                    let notifier = scope.spawn(|| {
                        for _ in 0..200 {
                            poller.notify();
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    });
                    let deadline = Instant::now() + Duration::from_secs(60);
                    while !(churn.is_finished() && notifier.is_finished()) {
                        assert!(Instant::now() < deadline, "[{NAME}] churn wedged");
                        let mut events = Vec::new();
                        // Events for just-deleted keys are permitted (the wait
                        // races deletion); errors and deadlock are not.
                        poller
                            .wait(&mut events, Some(Duration::from_millis(5)))
                            .unwrap_or_else(|e| panic!("[{NAME}] wait failed: {e}"));
                    }
                    churn.join().unwrap();
                    notifier.join().unwrap();
                });
                assert!(poller.len() == 0, "[{NAME}] leaked registrations");
            }
        }
    };
}

#[cfg(target_os = "linux")]
conformance_suite!(epoll, crate::sys::epoll::EpollPoller);
conformance_suite!(peek, crate::peek::PeekPoller);
