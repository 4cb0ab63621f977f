package workload

import (
	"fmt"
	"math/rand"

	"massbft/internal/aria"
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// SmallBank parameters from §VI: 1,000,000 accounts, uniform access.
const (
	DefaultAccounts = 1_000_000
	// initialBalance is the balance a never-touched account reads as (lazy
	// initialization; see the package comment).
	initialBalance int64 = 10_000
)

// SmallBank transaction types (the standard six-operation mix).
const (
	sbAmalgamate = iota + 1
	sbBalance
	sbDepositChecking
	sbSendPayment
	sbTransactSavings
	sbWriteCheck
	sbNumOps
)

// SmallBank simulates bank transfer operations over checking and savings
// accounts with uniform account selection.
type SmallBank struct {
	accounts uint64
	rng      *rand.Rand
}

// NewSmallBank creates the workload.
func NewSmallBank(accounts uint64, seed int64) *SmallBank {
	return &SmallBank{accounts: accounts, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Workload.
func (s *SmallBank) Name() string { return "smallbank" }

// Load implements Workload (accounts are lazily initialized).
func (s *SmallBank) Load(db *statedb.Store) {}

func checkingKey(acct uint64) storeKey { return key("sb:c:", acct) }
func savingsKey(acct uint64) storeKey  { return key("sb:s:", acct) }

// Next implements Workload. Payload: op(1) | acct1(8) | acct2(8) | amount(8).
func (s *SmallBank) Next(client uint64) types.Transaction {
	op := byte(s.rng.Intn(sbNumOps-1) + 1)
	a1 := s.rng.Uint64() % s.accounts
	a2 := s.rng.Uint64() % s.accounts
	if a2 == a1 {
		a2 = (a1 + 1) % s.accounts
	}
	amount := uint64(s.rng.Intn(100) + 1)
	payload := make([]byte, 25)
	payload[0] = op
	putU64(payload[1:], a1)
	putU64(payload[9:], a2)
	putU64(payload[17:], amount)
	return types.Transaction{
		Client:  client,
		Nonce:   s.rng.Uint64(),
		Payload: payload,
		Sig:     dummySig(s.rng),
	}
}

// Executor implements Workload. Balances follow the standard SmallBank
// semantics; overdrafts abort (logic abort, not a conflict).
func (s *SmallBank) Executor() aria.Executor {
	return func(fp *aria.Footprint, tx *types.Transaction) (bool, error) {
		p := tx.Payload
		if len(p) != 25 {
			return false, fmt.Errorf("smallbank: bad payload size %d", len(p))
		}
		op := p[0]
		a1 := getU64(p[1:])
		a2 := getU64(p[9:])
		amount := int64(getU64(p[17:]))
		bal := func(key storeKey) int64 { return readI64(fp, &key, initialBalance) }

		switch op {
		case sbBalance:
			_ = bal(checkingKey(a1)) + bal(savingsKey(a1))
			return false, nil

		case sbDepositChecking:
			k := checkingKey(a1)
			writeI64(fp, &k, bal(k)+amount)
			return false, nil

		case sbTransactSavings:
			k := savingsKey(a1)
			nb := bal(k) + amount
			if nb < 0 {
				return true, nil
			}
			writeI64(fp, &k, nb)
			return false, nil

		case sbAmalgamate:
			// Move all of a1's funds into a2's checking.
			kc1, ks1, kc2 := checkingKey(a1), savingsKey(a1), checkingKey(a2)
			total := bal(kc1) + bal(ks1)
			writeI64(fp, &kc1, 0)
			writeI64(fp, &ks1, 0)
			writeI64(fp, &kc2, bal(kc2)+total)
			return false, nil

		case sbSendPayment:
			kc1, kc2 := checkingKey(a1), checkingKey(a2)
			b1 := bal(kc1)
			if b1 < amount {
				return true, nil
			}
			writeI64(fp, &kc1, b1-amount)
			writeI64(fp, &kc2, bal(kc2)+amount)
			return false, nil

		case sbWriteCheck:
			kc, ks := checkingKey(a1), savingsKey(a1)
			bc := bal(kc)
			fee := int64(0)
			if bc+bal(ks) < amount {
				fee = 1 // overdraft penalty per SmallBank spec
			}
			writeI64(fp, &kc, bc-amount-fee)
			return false, nil
		}
		return false, fmt.Errorf("smallbank: unknown op %d", op)
	}
}

// TotalBalance sums every touched account's balance plus the implied initial
// balances of untouched accounts; used by the bank example's audit. Since
// untouched accounts all hold initialBalance, conservation is checked over
// touched accounts only with the write-check fee accounted by the caller.
func TotalBalance(db *statedb.Store, touched []uint64) int64 {
	var sum int64
	for _, a := range touched {
		vc, okc := db.Get(checkingKey(a).String())
		vs, oks := db.Get(savingsKey(a).String())
		sum += i64of(vc, okc, initialBalance) + i64of(vs, oks, initialBalance)
	}
	return sum
}
