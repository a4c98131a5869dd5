//! Clean: parallelism goes through the pool; non-spawning thread APIs and
//! test code are fine.

pub fn fan_out(cells: &[f64]) -> Vec<f64> {
    ppn_tensor::par::par_map(cells.len(), |i| cells[i] + 1.0)
}

pub fn host_width() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

pub fn backoff(d: std::time::Duration) {
    std::thread::sleep(d);
}

pub fn sanctioned() {
    // ppn-check: allow(no-thread) exercising the escape hatch in a fixture
    let _ = std::thread::spawn(|| 1);
}

#[cfg(test)]
mod tests {
    #[test]
    fn spawning_in_tests_is_fine() {
        let h = std::thread::spawn(|| 2 + 2);
        assert_eq!(h.join().unwrap(), 4);
    }
}
