//! Trace events and the preallocated wrapping ring that stores them.

use crate::stage::Stage;

/// One traced span or event: which stage, in which round, how long, plus a
/// stage-specific payload (e.g. requests for a schedule call, slots lost
/// for a fault drain).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// The pipeline stage this record times.
    pub stage: Stage,
    /// Simulation round the record belongs to.
    pub round: u64,
    /// Span duration in nanoseconds (0 for pure events).
    pub ns: u64,
    /// Stage-specific payload.
    pub payload: u64,
}

impl TraceRecord {
    /// Formats the record as one line of the JSONL trace export.
    ///
    /// The schema is one object per line with exactly four fields:
    ///
    /// ```
    /// use vod_obs::{Stage, TraceRecord};
    /// use vod_core::json::Json;
    ///
    /// let rec = TraceRecord { stage: Stage::Schedule, round: 7, ns: 1500, payload: 3 };
    /// let line = rec.to_jsonl();
    /// assert_eq!(line, r#"{"stage":"schedule","round":7,"ns":1500,"payload":3}"#);
    ///
    /// // Every line is a self-contained JSON document.
    /// let parsed = Json::parse(&line).unwrap();
    /// assert_eq!(parsed.field("stage").unwrap().as_str().unwrap(), "schedule");
    /// assert_eq!(parsed.field("round").unwrap().as_u64().unwrap(), 7);
    /// assert_eq!(parsed.field("ns").unwrap().as_u64().unwrap(), 1500);
    /// assert_eq!(parsed.field("payload").unwrap().as_u64().unwrap(), 3);
    /// ```
    pub fn to_jsonl(&self) -> String {
        format!(
            r#"{{"stage":"{}","round":{},"ns":{},"payload":{}}}"#,
            self.stage.name(),
            self.round,
            self.ns,
            self.payload
        )
    }
}

/// A preallocated wrapping ring of [`TraceRecord`]s.
///
/// Pushing never allocates once the ring is built: when full, the oldest
/// record is overwritten and `dropped` counts the loss. Draining (an
/// end-of-run operation) returns the surviving records oldest-first.
#[derive(Clone, Debug)]
pub struct TraceRing {
    records: Vec<TraceRecord>,
    capacity: usize,
    /// Index of the oldest record when the ring has wrapped.
    head: usize,
    /// Records overwritten because the ring was full.
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding up to `capacity` records (fully preallocated).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing {
            records: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends a record, overwriting the oldest when full. Never allocates.
    pub fn push(&mut self, record: TraceRecord) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns all records, oldest first.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.records.len());
        out.extend_from_slice(&self.records[self.head..]);
        out.extend_from_slice(&self.records[..self.head]);
        self.records.clear();
        self.head = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            stage: Stage::Schedule,
            round: i,
            ns: i * 10,
            payload: i,
        }
    }

    #[test]
    fn push_under_capacity_keeps_order() {
        let mut ring = TraceRing::with_capacity(4);
        for i in 0..3 {
            ring.push(rec(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 0);
        let rounds: Vec<u64> = ring.drain().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![0, 1, 2]);
        assert!(ring.is_empty());
    }

    #[test]
    fn wrapping_overwrites_oldest_and_counts_drops() {
        let mut ring = TraceRing::with_capacity(3);
        for i in 0..5 {
            ring.push(rec(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let rounds: Vec<u64> = ring.drain().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
    }

    #[test]
    fn wrapping_never_grows_the_allocation() {
        let mut ring = TraceRing::with_capacity(2);
        for i in 0..100 {
            ring.push(rec(i));
        }
        assert_eq!(ring.records.capacity(), 2);
    }

    #[test]
    fn zero_capacity_only_counts() {
        let mut ring = TraceRing::with_capacity(0);
        ring.push(rec(1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }
}
