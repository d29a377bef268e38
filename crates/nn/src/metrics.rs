//! Classification metrics.

use rdo_tensor::Tensor;

use crate::error::{NnError, Result};

/// Top-1 classification accuracy of a `(batch, classes)` logit matrix
/// against integer labels, in `[0, 1]`.
///
/// # Errors
///
/// Returns [`NnError::LabelMismatch`] if the label count differs from the
/// batch size.
///
/// # Examples
///
/// ```
/// use rdo_nn::metrics::accuracy;
/// use rdo_tensor::Tensor;
///
/// let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0, 3.0], &[2, 2])?;
/// assert_eq!(accuracy(&logits, &[0, 1])?, 1.0);
/// assert_eq!(accuracy(&logits, &[1, 0])?, 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    if logits.shape().rank() != 2 {
        return Err(NnError::Tensor(rdo_tensor::TensorError::RankMismatch {
            op: "accuracy",
            expected: 2,
            actual: logits.shape().rank(),
        }));
    }
    let n = logits.dims()[0];
    if labels.len() != n {
        return Err(NnError::LabelMismatch { batch: n, labels: labels.len() });
    }
    if n == 0 {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r)?;
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        if best == label {
            correct += 1;
        }
    }
    Ok(correct as f32 / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 9.0, 1.0, 0.0, 0.0, 5.0, 1.0], &[3, 3]).unwrap();
        // argmax per row: 2, 0, 1
        assert_eq!(accuracy(&logits, &[2, 0, 1]).unwrap(), 1.0);
        assert!((accuracy(&logits, &[2, 0, 2]).unwrap() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn mismatched_labels_rejected() {
        let logits = Tensor::zeros(&[2, 2]);
        assert!(accuracy(&logits, &[0]).is_err());
    }
}
