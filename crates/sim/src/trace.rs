//! Waveform recording and VCD export.
//!
//! The paper validated its circuits by inspecting VERILOG/SPICE waveforms;
//! this module records the observable signals of a conformance run and
//! writes them in the standard Value Change Dump format so they can be
//! inspected in GTKWave or any other viewer.

use std::fmt::Write as _;

/// One recorded signal.
#[derive(Debug, Clone)]
pub struct WaveSignal {
    /// Display name.
    pub name: String,
    /// Value at time 0.
    pub initial: bool,
    /// Edges as `(time_ps, new_value)`, in non-decreasing time order.
    pub edges: Vec<(u64, bool)>,
}

impl WaveSignal {
    /// The signal's value at `time_ps`.
    pub fn value_at(&self, time_ps: u64) -> bool {
        self.edges
            .iter()
            .take_while(|&&(t, _)| t <= time_ps)
            .last()
            .map_or(self.initial, |&(_, v)| v)
    }

    /// Number of transitions recorded.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// A multi-signal waveform.
///
/// # Example
///
/// ```
/// use nshot_sim::Waveform;
///
/// let mut w = Waveform::new("demo");
/// let r = w.add_signal("r", false);
/// w.record(r, 1_000, true);
/// w.record(r, 5_000, false);
/// let vcd = w.to_vcd();
/// assert!(vcd.contains("$var wire 1"));
/// assert!(vcd.contains("#1000"));
/// ```
#[derive(Debug, Clone)]
pub struct Waveform {
    name: String,
    signals: Vec<WaveSignal>,
}

impl Waveform {
    /// An empty waveform for the named design.
    pub fn new(name: &str) -> Self {
        Waveform {
            name: name.to_owned(),
            signals: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Register a signal; returns its index for [`Waveform::record`].
    pub fn add_signal(&mut self, name: &str, initial: bool) -> usize {
        self.signals.push(WaveSignal {
            name: name.to_owned(),
            initial,
            edges: Vec::new(),
        });
        self.signals.len() - 1
    }

    /// Record an edge.
    ///
    /// # Panics
    ///
    /// Panics if the index is unknown or time goes backwards for the signal.
    pub fn record(&mut self, index: usize, time_ps: u64, value: bool) {
        let s = &mut self.signals[index];
        if let Some(&(last, _)) = s.edges.last() {
            assert!(time_ps >= last, "edges must be recorded in time order");
        }
        s.edges.push((time_ps, value));
    }

    /// The recorded signals.
    pub fn signals(&self) -> &[WaveSignal] {
        &self.signals
    }

    /// Look a signal up by name.
    pub fn signal_by_name(&self, name: &str) -> Option<&WaveSignal> {
        self.signals.iter().find(|s| s.name == name)
    }

    /// Latest recorded timestamp.
    pub fn end_time_ps(&self) -> u64 {
        self.signals
            .iter()
            .filter_map(|s| s.edges.last().map(|&(t, _)| t))
            .max()
            .unwrap_or(0)
    }

    /// Serialize to Value Change Dump (timescale 1 ps).
    pub fn to_vcd(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date generated by nshot $end");
        let _ = writeln!(out, "$version nshot-sim $end");
        let _ = writeln!(out, "$timescale 1ps $end");
        let _ = writeln!(out, "$scope module {} $end", sanitize(&self.name));
        for (i, s) in self.signals.iter().enumerate() {
            let _ = writeln!(out, "$var wire 1 {} {} $end", ident(i), sanitize(&s.name));
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        let _ = writeln!(out, "$dumpvars");
        for (i, s) in self.signals.iter().enumerate() {
            let _ = writeln!(out, "{}{}", u8::from(s.initial), ident(i));
        }
        let _ = writeln!(out, "$end");
        // Merge all edges into a single time-ordered stream.
        let mut events: Vec<(u64, usize, bool)> = Vec::new();
        for (i, s) in self.signals.iter().enumerate() {
            for &(t, v) in &s.edges {
                events.push((t, i, v));
            }
        }
        events.sort_unstable();
        let mut last_time = None;
        for (t, i, v) in events {
            if last_time != Some(t) {
                let _ = writeln!(out, "#{t}");
                last_time = Some(t);
            }
            let _ = writeln!(out, "{}{}", u8::from(v), ident(i));
        }
        out
    }
}

/// VCD identifier characters (printable ASCII, starting at `!`).
fn ident(index: usize) -> String {
    let mut n = index;
    let mut s = String::new();
    loop {
        s.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() || c == '_' { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_at_follows_edges() {
        let mut w = Waveform::new("t");
        let a = w.add_signal("a", false);
        w.record(a, 100, true);
        w.record(a, 300, false);
        let s = &w.signals()[0];
        assert!(!s.value_at(0));
        assert!(s.value_at(100));
        assert!(s.value_at(299));
        assert!(!s.value_at(300));
        assert_eq!(s.num_edges(), 2);
    }

    #[test]
    fn vcd_structure() {
        let mut w = Waveform::new("design.x");
        let a = w.add_signal("req", false);
        let b = w.add_signal("ack!", true);
        w.record(a, 1_000, true);
        w.record(b, 1_500, false);
        w.record(a, 1_500, false);
        let vcd = w.to_vcd();
        assert!(vcd.contains("$timescale 1ps $end"));
        assert!(vcd.contains("$scope module design_x $end"));
        assert!(vcd.contains("$var wire 1 ! req $end"));
        assert!(vcd.contains("$var wire 1 \" ack_ $end"));
        // Initial dump and both timestamps present; 1500 printed once.
        assert!(vcd.contains("$dumpvars\n0!\n1\"\n$end"));
        assert!(vcd.contains("#1000\n1!"));
        assert_eq!(vcd.matches("#1500").count(), 1);
    }

    #[test]
    fn ident_is_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let id = ident(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(id));
        }
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn backwards_time_panics() {
        let mut w = Waveform::new("t");
        let a = w.add_signal("a", false);
        w.record(a, 500, true);
        w.record(a, 100, false);
    }

    #[test]
    fn end_time_over_signals() {
        let mut w = Waveform::new("t");
        let a = w.add_signal("a", false);
        let b = w.add_signal("b", false);
        assert_eq!(w.end_time_ps(), 0);
        w.record(a, 700, true);
        w.record(b, 900, true);
        assert_eq!(w.end_time_ps(), 900);
    }
}
