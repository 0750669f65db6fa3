//! Update-workload generators: XQuery-update scripts for the Chapter 9
//! sweeps (insert size — Fig 9.4; delete size — Fig 9.5; modifies).

use crate::bib::BibConfig;
use std::fmt::Write;

/// Script inserting `n` fresh books at the end of bib.xml. `start_idx`
/// should continue the generator's numbering so titles stay unique; setting
/// `year` groups them into one year (skewed batch) or `None` spreads them.
pub fn insert_books_script(
    cfg: &BibConfig,
    start_idx: usize,
    n: usize,
    year: Option<usize>,
) -> String {
    let mut out = String::new();
    for j in 0..n {
        let i = start_idx + j;
        let y = year.unwrap_or_else(|| cfg.year(i));
        let title = BibConfig::title(i);
        writeln!(
            out,
            "for $r in document(\"bib.xml\")/bib update $r insert \
             <book year=\"{y}\"><title>{title}</title>\
             <author><last>Gen</last><first>G.</first></author></book> into $r ;"
        )
        .unwrap();
    }
    out
}

/// Script deleting the books titled with generator indices
/// `start_idx .. start_idx + n`.
pub fn delete_books_script(start_idx: usize, n: usize) -> String {
    let mut out = String::new();
    for j in 0..n {
        let title = BibConfig::title(start_idx + j);
        writeln!(
            out,
            "for $b in document(\"bib.xml\")/bib/book where $b/title = \"{title}\" \
             update $b delete $b ;"
        )
        .unwrap();
    }
    out
}

/// Script deleting every book of one year — a large correlated delete that
/// removes a whole group from the Figure 1.2(a)-style view (the Figure 9.6
/// "entire fragment" scenario at the bib scale).
pub fn delete_year_script(year: usize) -> String {
    format!(
        "for $b in document(\"bib.xml\")/bib/book where $b/@year = \"{year}\" \
         update $b delete $b"
    )
}

/// Script modifying the price of `n` entries (by generator title index).
pub fn modify_prices_script(start_idx: usize, n: usize, new_price: &str) -> String {
    let mut out = String::new();
    for j in 0..n {
        let title = BibConfig::title(start_idx + j);
        writeln!(
            out,
            "for $e in document(\"prices.xml\")/prices/entry where $e/b-title = \"{title}\" \
             update $e replace $e/price/text() with \"{new_price}\" ;"
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xquery_lang::UpdateBatch;

    #[test]
    fn scripts_parse_as_update_batches() {
        let ops = |script: &str| UpdateBatch::from_script(script).unwrap().len();
        let cfg = BibConfig::default();
        let ins = insert_books_script(&cfg, 100, 5, Some(1994));
        assert_eq!(ops(&ins), 5);
        let del = delete_books_script(0, 3);
        assert_eq!(ops(&del), 3);
        let m = modify_prices_script(0, 2, "9.99");
        assert_eq!(ops(&m), 2);
        assert_eq!(ops(&delete_year_script(1994)), 1);
    }
}
