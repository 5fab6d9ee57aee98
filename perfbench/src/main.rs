//! Command-line entry point; see `sias_perfbench::USAGE`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match sias_perfbench::parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", sias_perfbench::USAGE);
            std::process::exit(2);
        }
    };
    if !sias_perfbench::main_with(&args) {
        std::process::exit(1);
    }
}
