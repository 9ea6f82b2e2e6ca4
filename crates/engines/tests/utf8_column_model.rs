//! `Utf8Column` — offsets into one byte buffer — against a `Vec<String>`
//! model: every way the executor builds a string column (gather with and
//! without missing rows, keep-by-mask, concatenation, broadcast) yields the
//! strings the model does, over empty strings, multi-byte UTF-8, empty
//! columns and NULL masks.

use midas_engines::data::{Column, ColumnData, Table, Utf8Column};
use proptest::collection::vec;
use proptest::prelude::*;

/// Empty, ASCII, and two-, three- and four-byte UTF-8 values.
const POOL: [&str; 7] = [
    "",
    "a",
    "é",
    "漢",
    "🦀",
    "naïve 漢字 🦀",
    "plain ascii text",
];

/// `(pool index, valid)` picks as the model: strings and their validity.
fn model(picks: &[(usize, usize)]) -> (Vec<String>, Vec<bool>) {
    picks
        .iter()
        .map(|&(p, ok)| (POOL[p].to_string(), ok == 1))
        .unzip()
}

fn column(strings: &[String], valid: &[bool]) -> Column {
    Column::with_validity(
        "s",
        ColumnData::Utf8(strings.to_vec().into()),
        valid.to_vec(),
    )
}

/// Every value a string column holds, NULL rows' placeholders included.
fn strings_of(c: &Column) -> Vec<String> {
    let ColumnData::Utf8(v) = &*c.data else {
        panic!("not a string column: {c:?}");
    };
    v.iter().map(str::to_string).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reads_match_the_model(picks in vec((0usize..7, 0usize..2), 0..24)) {
        let (strings, _) = model(&picks);
        let col = Utf8Column::from(strings.clone());
        prop_assert_eq!(col.len(), strings.len());
        prop_assert_eq!(col.is_empty(), strings.is_empty());
        prop_assert_eq!(col.total_bytes(), strings.iter().map(String::len).sum::<usize>());
        prop_assert_eq!(col.iter().collect::<Vec<_>>(), strings.clone());
        for (i, s) in strings.iter().enumerate() {
            prop_assert_eq!(&col[i], s.as_str());
            prop_assert_eq!(col.value_len(i), s.len());
        }
        let mut pushed = Utf8Column::default();
        strings.iter().for_each(|s| pushed.push(s));
        prop_assert_eq!(&pushed, &col);
        prop_assert_eq!(&strings.iter().map(String::as_str).collect::<Utf8Column>(), &col);
    }

    #[test]
    fn gathers_match_the_model(
        picks in vec((0usize..7, 0usize..2), 0..24),
        rows in vec((0usize..64, 0usize..4), 0..32),
    ) {
        let (strings, valid) = model(&picks);
        let n = strings.len();
        // A request reads row `i % n`, or misses when `miss == 0` (always,
        // over an empty column).
        let req: Vec<Option<usize>> =
            rows.iter().map(|&(i, miss)| (n > 0 && miss != 0).then(|| i % n)).collect();
        let want: Vec<&str> = req.iter().map(|r| r.map_or("", |i| strings[i].as_str())).collect();
        let got = Utf8Column::from(strings.clone()).gather(req.iter().copied());
        prop_assert_eq!(got.iter().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(got.total_bytes(), want.iter().map(|s| s.len()).sum::<usize>());

        // Through a NULL-masked column: a miss is a NULL `""`, a hit keeps
        // its row's validity, and both gathers agree.
        let c = column(&strings, &valid);
        let ids: Vec<u32> = req.iter().map(|r| r.unwrap_or(0) as u32).collect();
        let hit: Vec<bool> = req.iter().map(Option::is_some).collect();
        let opt = c.take_opt(&req);
        prop_assert_eq!(&c.take_opt_ids(&ids, &hit), &opt);
        prop_assert_eq!(strings_of(&opt), want);
        let want_valid: Vec<bool> = req.iter().map(|r| r.is_some_and(|i| valid[i])).collect();
        prop_assert_eq!(opt.validity.clone(), Some(want_valid));

        // Without missing rows, `take` and `take_ids` copy values and mask.
        let present: Vec<usize> = req.iter().flatten().copied().collect();
        let taken = c.take(&present);
        let present_ids: Vec<u32> = present.iter().map(|&i| i as u32).collect();
        prop_assert_eq!(&c.take_ids(&present_ids), &taken);
        let want: Vec<&str> = present.iter().map(|&i| strings[i].as_str()).collect();
        prop_assert_eq!(strings_of(&taken), want);
        prop_assert_eq!(taken.validity.clone(), Some(present.iter().map(|&i| valid[i]).collect()));
    }

    #[test]
    fn keep_by_mask_matches_the_model(picks in vec((0usize..7, 0usize..2, 0usize..2), 0..24)) {
        let (strings, valid) = model(&picks.iter().map(|p| (p.0, p.1)).collect::<Vec<_>>());
        let keep: Vec<bool> = picks.iter().map(|p| p.2 == 1).collect();
        let kept = column(&strings, &valid).filter(&keep);
        let rows: Vec<usize> = (0..strings.len()).filter(|&i| keep[i]).collect();
        let want: Vec<&str> = rows.iter().map(|&i| strings[i].as_str()).collect();
        prop_assert_eq!(strings_of(&kept), want);
        prop_assert_eq!(kept.validity.clone(), Some(rows.iter().map(|&i| valid[i]).collect()));
    }

    #[test]
    fn concat_matches_the_model(
        parts in vec(vec((0usize..7, 0usize..2), 0..8), 0..5),
        masked in vec(0usize..2, 4),
    ) {
        let models: Vec<_> = parts.iter().map(|p| model(p)).collect();
        let tables: Vec<Table> = models
            .iter()
            .zip(&masked)
            .map(|((s, v), &m)| {
                let col = match m {
                    1 => column(s, v),
                    _ => Column::new("s", ColumnData::Utf8(s.clone().into())),
                };
                Table::new("t", vec![col]).expect("one column")
            })
            .collect();
        let whole = Table::concat("t", &tables.iter().collect::<Vec<_>>()).expect("one schema");
        let mut extended = Utf8Column::default();
        models.iter().for_each(|(s, _)| extended.extend_from(&Utf8Column::from(s.clone())));
        let want: Vec<String> = models.iter().flat_map(|(s, _)| s.clone()).collect();
        prop_assert_eq!(&extended, &Utf8Column::from(want.clone()));
        if parts.is_empty() {
            prop_assert_eq!(whole.n_columns(), 0);
            return Ok(());
        }
        prop_assert_eq!(strings_of(&whole.columns()[0]), want);
        let any_mask = masked.iter().take(parts.len()).any(|&m| m == 1);
        let want_valid: Vec<bool> = models
            .iter()
            .zip(&masked)
            .flat_map(|((s, v), &m)| if m == 1 { v.clone() } else { vec![true; s.len()] })
            .collect();
        prop_assert_eq!(whole.columns()[0].validity.clone(), any_mask.then_some(want_valid));
    }

    #[test]
    fn repeat_matches_the_model(p in 0usize..7, n in 0usize..6) {
        let col = Utf8Column::repeat(POOL[p], n);
        prop_assert_eq!(&col, &Utf8Column::from(vec![POOL[p].to_string(); n]));
        prop_assert_eq!(col.total_bytes(), POOL[p].len() * n);
    }
}
