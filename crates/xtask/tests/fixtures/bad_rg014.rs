//! RG014 fixture: `vec![<T>::with_capacity(..); n]` keeps only the last
//! element's reservation.

fn columns(n: usize, len: usize) -> Vec<Vec<u32>> {
    vec![Vec::with_capacity(len); n]
}

fn nested(n: usize) -> Vec<Vec<Vec<u8>>> {
    vec![vec![Vec::with_capacity(8); 2]; n]
}

fn built_one_by_one(n: usize, len: usize) -> Vec<Vec<u32>> {
    (0..n).map(|_| Vec::with_capacity(len)).collect()
}

fn list_form(len: usize) -> Vec<Vec<u32>> {
    vec![Vec::with_capacity(len), Vec::with_capacity(len)]
}

fn count_reserves(n: usize) -> Vec<u32> {
    vec![0; Vec::<u8>::with_capacity(n).capacity()]
}

fn waived(n: usize) -> Vec<String> {
    // xtask-allow: RG014 the reservation is only a hint here
    vec![String::with_capacity(16); n]
}

#[cfg(test)]
mod tests {
    #[test]
    fn fine_in_tests() {
        let v: Vec<Vec<u8>> = vec![Vec::with_capacity(4); 3];
        assert_eq!(v.len(), 3);
    }
}
