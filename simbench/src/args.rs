//! Command-line arguments. Bad input fails here with a one-line error
//! (exit code 2), never a panic deeper in.

use crate::workload::Workload;

pub const USAGE: &str =
    "usage: simbench --workload <mixed-steady|host-costaware|host-traced|elastic-chaos> \
     --seed <u64> --seconds <1..=60> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("malformed seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                match v.parse::<u64>() {
                    Ok(s) if (1..=60).contains(&s) => seconds = Some(s),
                    _ => return Err(format!("malformed seconds {v:?}: expected 1..=60")),
                }
            }
            "--trace" => {
                let v = value()?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("malformed trace flag {v:?}: expected 0 or 1")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_the_contract_form() {
        let a = p("--workload host-traced --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::HostTraced);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_input_with_one_line() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload host-traced --seed -1 --seconds 1 --trace 0",
            "--workload host-traced --seed 1x --seconds 1 --trace 0",
            "--workload host-traced --seed 1 --seconds 0 --trace 0",
            "--workload host-traced --seed 1 --seconds 1 --trace 2",
            "--workload host-traced --seed 1 --seconds 1",
            "--workload host-traced --seed",
            "--bogus",
        ] {
            let e = p(bad).expect_err(bad);
            assert!(!e.contains('\n'), "{e}");
        }
    }
}
