//! The benchmark's definition, `BENCHMARK.json` at the repository root,
//! compiled into the binary: the workloads it accepts and the metric
//! names and units it prints come from that one file, so the two cannot
//! drift apart.

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The parts of `BENCHMARK.json` the binary uses.
pub struct Spec {
    pub workloads: Vec<String>,
    /// (name, unit) of every end-to-end metric, in the file's order.
    pub end_to_end: Vec<(String, String)>,
    /// (name, unit) of every per-layer metric, in the file's order.
    pub per_layer: Vec<(String, String)>,
}

impl Spec {
    pub fn load() -> Self {
        let json = Parser { text: BENCHMARK_JSON.as_bytes(), at: 0 }.value();
        let entries = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let Json::List(items) = json.field(key) else { panic!("{key} is not a list") };
            items.iter().map(|item| fields.iter().map(|f| item.field(f).text()).collect()).collect()
        };
        let pairs = |key: &str| -> Vec<(String, String)> {
            entries(key, &["name", "unit"])
                .into_iter()
                .map(|e| (e[0].clone(), e[1].clone()))
                .collect()
        };
        Self {
            workloads: entries("workloads", &["name"]).into_iter().map(|e| e[0].clone()).collect(),
            end_to_end: pairs("end_to_end"),
            per_layer: pairs("per_layer"),
        }
    }
}

/// A JSON value, with numbers and literals left unparsed.
enum Json {
    Text(String),
    List(Vec<Json>),
    Object(Vec<(String, Json)>),
    Scalar,
}

impl Json {
    fn field(&self, key: &str) -> &Json {
        let Json::Object(fields) = self else { panic!("BENCHMARK.json: {key} of a non-object") };
        fields
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
            .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
    }

    fn text(&self) -> String {
        match self {
            Json::Text(s) => s.clone(),
            _ => panic!("BENCHMARK.json: expected a string"),
        }
    }
}

/// Recursive-descent reader for the well-formed JSON of
/// `BENCHMARK.json`; it panics on anything else.
struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> u8 {
        while self.text[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
        self.text[self.at]
    }

    fn expect(&mut self, byte: u8) {
        assert_eq!(self.peek(), byte, "BENCHMARK.json: byte {}", self.at);
        self.at += 1;
    }

    /// Parses the items of a list or object whose opening bracket was
    /// just read, up to and including `close`.
    fn items<T>(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let mut items = Vec::new();
        if self.peek() == close {
            self.at += 1;
            return items;
        }
        loop {
            items.push(item(self));
            if self.peek() == b',' {
                self.at += 1;
            } else {
                self.expect(close);
                return items;
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.at += 1;
                Json::Object(self.items(b'}', |p| {
                    let key = p.string();
                    p.expect(b':');
                    (key, p.value())
                }))
            }
            b'[' => {
                self.at += 1;
                Json::List(self.items(b']', Self::value))
            }
            b'"' => Json::Text(self.string()),
            _ => {
                while !b",]} \t\r\n".contains(&self.text[self.at]) {
                    self.at += 1;
                }
                Json::Scalar
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut bytes = Vec::new();
        loop {
            let byte = self.text[self.at];
            self.at += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let escaped = self.text[self.at];
                    self.at += 1;
                    match escaped {
                        b'n' => bytes.push(b'\n'),
                        b't' => bytes.push(b'\t'),
                        b'r' => bytes.push(b'\r'),
                        b'b' => bytes.push(8),
                        b'f' => bytes.push(12),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.text[self.at..self.at + 4])
                                .expect("BENCHMARK.json: \\u escape");
                            self.at += 4;
                            let code = u32::from_str_radix(hex, 16).expect("BENCHMARK.json: hex");
                            let c = char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER);
                            bytes.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => bytes.push(other),
                    }
                }
                _ => bytes.push(byte),
            }
        }
        String::from_utf8(bytes).expect("BENCHMARK.json is UTF-8")
    }
}
