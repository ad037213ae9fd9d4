//! The worker's side of the link, driven by hand: a test plays the
//! gateway over loopback TCP against a real `run_worker`, so it can put
//! messages on the wire in exactly the order under test.

use gateway::WorkerOptions;
use proto::{GatewayMsg, JobSource, Priority, SubmitRequest, WorkerMsg, WorkerResult};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A hand-driven gateway end of one worker link.
struct Link {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Link {
    /// Starts a real worker against a fresh listener, accepts it, and
    /// answers its hello with a welcome carrying `heartbeat_ms`.
    fn open(heartbeat_ms: u64) -> (Link, JoinHandle<Result<(), String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let worker =
            std::thread::spawn(move || gateway::run_worker(&addr, &WorkerOptions::default()));
        let (stream, _) = listener.accept().unwrap();
        let mut link = Link {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        };
        assert!(matches!(link.recv(), WorkerMsg::Hello { .. }));
        link.send(&GatewayMsg::Welcome { heartbeat_ms });
        (link, worker)
    }

    /// Sends one message, newline included, in one write: a line split
    /// over two writes would wait for the worker's delayed ACK.
    fn send(&mut self, msg: &GatewayMsg) {
        let line = format!("{}\n", msg.to_json());
        self.writer.write_all(line.as_bytes()).unwrap();
    }

    /// The next message other than a heartbeat or a progress tick.
    fn recv(&mut self) -> WorkerMsg {
        loop {
            let mut line = String::new();
            assert!(
                self.reader.read_line(&mut line).unwrap() > 0,
                "worker closed the link"
            );
            match WorkerMsg::parse(line.trim()).unwrap() {
                WorkerMsg::Beat | WorkerMsg::Progress { .. } => {}
                msg => return msg,
            }
        }
    }
}

fn assign(id: &str) -> GatewayMsg {
    GatewayMsg::Assign {
        spec: Box::new(SubmitRequest {
            id: Some(id.to_string()),
            source: JobSource::Suite("C880".to_string()),
            deadline_ms: None,
            work_limit: None,
            seed: Some(1995),
            vectors: Some(256),
            verify: Some(gdo::VerifyPolicy::Off),
            engines: None,
            partitions: None,
            priority: Priority::Normal,
            resume: None,
            checkpoint: None,
            want_netlist: false,
            want_progress: false,
            panic_attempts: None,
        }),
        input: None,
    }
}

/// Regression: the worker registered a job's cancel handle only once the
/// job thread had set the job up, so a `cancel` written right behind its
/// `assign` found no job and was dropped; the job ran to completion.
#[test]
fn cancel_right_behind_its_assign_cancels_the_job() {
    let (mut link, worker) = Link::open(2000);
    for round in 0..5 {
        assert!(matches!(link.recv(), WorkerMsg::Pull), "round {round}");
        let id = format!("c{round}");
        link.send(&assign(&id));
        link.send(&GatewayMsg::Cancel { id: id.clone() });
        match link.recv() {
            WorkerMsg::Result { id: got, result } => {
                assert_eq!(got, id);
                assert_eq!(result, WorkerResult::Cancelled, "round {round}");
            }
            other => panic!("round {round}: expected a result, got {other:?}"),
        }
    }
    link.send(&GatewayMsg::Drain);
    worker.join().unwrap().unwrap();
}

/// Regression: the heartbeat thread slept a whole tick before it looked
/// at its stop flag, so a drained worker exited only after the rest of
/// a heartbeat interval — half a minute at this welcome's interval.
#[test]
fn drained_worker_exits_without_waiting_out_a_heartbeat() {
    let (mut link, worker) = Link::open(60_000);
    assert!(matches!(link.recv(), WorkerMsg::Pull));
    let t0 = Instant::now();
    link.send(&GatewayMsg::Drain);
    worker.join().unwrap().unwrap();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "worker took {took:?} to exit after drain"
    );
}

/// Regression: the worker wrote every line in two sends with Nagle's
/// algorithm on, so the `result` of a job and the `pull` behind it each
/// waited for the gateway's delayed ACK, 40 ms or more per job. These
/// assignments name an unknown engine, so no job runs: the worker
/// answers `result` and `pull` back to back.
#[test]
fn result_and_pull_leave_back_to_back() {
    const ROUNDS: usize = 10;
    let assignments: Vec<GatewayMsg> = (0..ROUNDS)
        .map(|round| {
            let GatewayMsg::Assign { mut spec, input } = assign(&format!("u{round}")) else {
                unreachable!("assign builds an assignment");
            };
            spec.engines = Some("no-such-engine".to_string());
            GatewayMsg::Assign { spec, input }
        })
        .collect();
    let (mut link, worker) = Link::open(2000);
    assert!(matches!(link.recv(), WorkerMsg::Pull));

    let mut replies = Vec::new();
    let t0 = Instant::now();
    for msg in &assignments {
        link.send(msg);
        replies.push(link.recv());
        replies.push(link.recv());
    }
    let took = t0.elapsed();
    link.send(&GatewayMsg::Drain);
    worker.join().unwrap().unwrap();

    for (round, pair) in replies.chunks(2).enumerate() {
        match &pair[0] {
            WorkerMsg::Result {
                id,
                result: WorkerResult::Failed { .. },
            } => assert_eq!(id, &format!("u{round}")),
            other => panic!("round {round}: expected a failed result, got {other:?}"),
        }
        assert!(matches!(pair[1], WorkerMsg::Pull), "round {round}");
    }
    assert!(
        took < Duration::from_millis(200),
        "{ROUNDS} result+pull exchanges took {took:?}"
    );
}
